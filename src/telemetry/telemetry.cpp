#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <string_view>

namespace daosim::telemetry {

namespace {

std::string u64_str(std::uint64_t v) { return strfmt("%" PRIu64, v); }
std::string i64_str(std::int64_t v) { return strfmt("%" PRId64, v); }

// %.17g round-trips every finite double bit-exactly, so formatting is as
// deterministic as the value itself.
std::string f64_str(double v) { return strfmt("%.17g", v); }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct Row {
  std::string path;  // <root>/<node path>
  Kind kind;
  std::vector<Field> fields;
};

std::vector<Row> flatten(const std::vector<const Registry*>& regs) {
  std::vector<Row> rows;
  for (const Registry* reg : regs) {
    if (reg == nullptr) continue;
    for (const auto& [path, node] : reg->nodes()) {
      Row r{reg->root() + "/" + path, node->kind(), {}};
      node->fields(r.fields);
      rows.push_back(std::move(r));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.path < b.path; });
  return rows;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::counter: return "counter";
    case Kind::gauge: return "gauge";
    case Kind::stat_gauge: return "stat_gauge";
    case Kind::histogram: return "histogram";
    case Kind::probe: return "probe";
  }
  return "unknown";
}

void Counter::fields(std::vector<Field>& out) const {
  out.push_back({"value", u64_str(value_)});
}

void Gauge::fields(std::vector<Field>& out) const {
  out.push_back({"value", i64_str(value_)});
  out.push_back({"max", i64_str(max_)});
}

void StatGauge::fields(std::vector<Field>& out) const {
  const bool any = stats_.count() > 0;
  out.push_back({"count", u64_str(stats_.count())});
  out.push_back({"mean", f64_str(stats_.mean())});
  out.push_back({"min", f64_str(any ? stats_.min() : 0.0)});
  out.push_back({"max", f64_str(any ? stats_.max() : 0.0)});
}

DurationHistogram::State& DurationHistogram::State::operator+=(const State& o) {
  if (o.count > 0) {
    min_ns = count == 0 ? o.min_ns : std::min(min_ns, o.min_ns);
    max_ns = count == 0 ? o.max_ns : std::max(max_ns, o.max_ns);
  }
  count += o.count;
  sum_ns += o.sum_ns;
  for (std::size_t k = 0; k < kBuckets; ++k) buckets[k] += o.buckets[k];
  return *this;
}

DurationHistogram::State DurationHistogram::State::operator-(const State& earlier) const {
  DAOSIM_REQUIRE(count >= earlier.count && sum_ns >= earlier.sum_ns,
                 "histogram delta against a later snapshot");
  State d;
  d.count = count - earlier.count;
  d.sum_ns = sum_ns - earlier.sum_ns;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    DAOSIM_REQUIRE(buckets[k] >= earlier.buckets[k], "histogram delta bucket underflow");
    d.buckets[k] = buckets[k] - earlier.buckets[k];
  }
  return d;
}

double DurationHistogram::State::percentile_ns(double p) const {
  DAOSIM_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * double(count - 1);  // 0-based sample rank
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    if (buckets[k] == 0) continue;
    if (double(seen + buckets[k] - 1) >= rank) {
      // Interpolate inside bucket k, whose durations have bit_width k.
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, int(k) - 1);
      const double hi = std::ldexp(1.0, int(k));
      const double frac =
          buckets[k] == 1 ? 0.0 : (rank - double(seen)) / double(buckets[k] - 1);
      double v = lo + frac * (hi - lo);
      if (max_ns > 0) v = std::min(v, double(max_ns));
      if (min_ns > 0) v = std::max(v, double(min_ns));
      return v;
    }
    seen += buckets[k];
  }
  return double(max_ns);
}

void DurationHistogram::record(sim::Time ns) {
  if (s_.count == 0) {
    s_.min_ns = ns;
    s_.max_ns = ns;
  } else {
    s_.min_ns = std::min(s_.min_ns, ns);
    s_.max_ns = std::max(s_.max_ns, ns);
  }
  ++s_.count;
  s_.sum_ns += ns;
  const std::size_t k = ns == 0 ? 0 : std::size_t(std::bit_width(ns));
  ++s_.buckets[std::min(k, kBuckets - 1)];
}

void DurationHistogram::fields(std::vector<Field>& out) const {
  out.push_back({"count", u64_str(s_.count)});
  out.push_back({"sum_ns", u64_str(s_.sum_ns)});
  out.push_back({"min_ns", u64_str(s_.count ? s_.min_ns : 0)});
  out.push_back({"max_ns", u64_str(s_.count ? s_.max_ns : 0)});
  out.push_back({"p50_ns", f64_str(s_.percentile_ns(50.0))});
  out.push_back({"p99_ns", f64_str(s_.percentile_ns(99.0))});
  // Log2 bucket vector, trimmed to the last occupied bucket (a JSON array;
  // the CSV writer quotes it). tools/metrics_diff.py diffs these
  // element-wise, so percentile shifts are explainable bucket by bucket.
  std::size_t last = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    if (s_.buckets[k] > 0) last = k + 1;
  }
  std::string b = "[";
  for (std::size_t k = 0; k < last; ++k) {
    if (k > 0) b += ',';
    b += u64_str(s_.buckets[k]);
  }
  b += ']';
  out.push_back({"buckets", std::move(b)});
}

void Probe::fields(std::vector<Field>& out) const {
  out.push_back({"value", u64_str(fn_())});
}

Probe& Registry::add_probe(const std::string& path, std::function<std::uint64_t()> fn) {
  auto [it, inserted] = nodes_.emplace(path, std::unique_ptr<Probe>(new Probe(std::move(fn))));
  DAOSIM_REQUIRE(inserted, "telemetry probe %s/%s already exists", root_.c_str(), path.c_str());
  return *static_cast<Probe*>(it->second.get());
}

namespace {

// RFC 4180 quoting for values embedding commas/quotes (histogram bucket
// arrays); plain values pass through untouched so existing dumps are stable.
std::string csv_field(const std::string& v) {
  if (v.find_first_of(",\"\n") == std::string::npos) return v;
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<const Registry*>& regs) {
  os << "path,kind,field,value\n";
  for (const Row& r : flatten(regs)) {
    for (const Field& f : r.fields) {
      os << r.path << ',' << kind_name(r.kind) << ',' << f.name << ',' << csv_field(f.value)
         << '\n';
    }
  }
}

void write_json(std::ostream& os, const std::vector<const Registry*>& regs) {
  os << "{\n";
  const std::vector<Row> rows = flatten(regs);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "  \"" << json_escape(r.path) << "\": {\"kind\": \"" << kind_name(r.kind) << '"';
    for (const Field& f : r.fields) os << ", \"" << f.name << "\": " << f.value;
    os << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  os << "}\n";
}

void write_dump(std::ostream& os, const std::vector<const Registry*>& regs, DumpFormat fmt) {
  if (fmt == DumpFormat::csv) {
    write_csv(os, regs);
  } else {
    write_json(os, regs);
  }
}

void TraceLog::span(const char* category, std::string name, std::uint32_t pid,
                    std::uint64_t tid, sim::Time begin, sim::Time end, TraceContext ctx) {
  if (!keep_unsampled_ && !ctx.active()) return;
  spans_.push_back({category, std::move(name), pid, tid, begin, end, ctx});
}

void TraceLog::set_process_name(std::uint32_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

std::size_t TraceLog::count(const std::string& category) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += category == s.category ? 1 : 0;
  return n;
}

void TraceLog::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [pid, name] : process_names_) {
    os << (first ? "" : ",\n") << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": 0, \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
    first = false;
  }
  for (const Span& s : spans_) {
    // Chrome trace timestamps are microseconds; keep ns precision as a
    // fraction. "X" is a complete (begin+duration) event. Traced spans carry
    // their causal ids in args so offline tools can rebuild the tree.
    os << (first ? "" : ",\n") << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
       << s.category << "\", \"ph\": \"X\", \"ts\": " << f64_str(double(s.begin) / 1000.0)
       << ", \"dur\": " << f64_str(double(s.end - s.begin) / 1000.0) << ", \"pid\": " << s.pid
       << ", \"tid\": " << s.tid;
    if (s.ctx.active()) {
      os << ", \"args\": {\"trace\": " << s.ctx.trace_id << ", \"span\": " << s.ctx.span_id
         << ", \"parent\": " << s.ctx.parent_id << "}";
    }
    os << "}";
    first = false;
  }
  // Flow events: one "s"/"f" pair per cross-process parent/child edge, so
  // Perfetto draws an arrow from the parent's track to the child's. The flow
  // id is the child's span id (unique per edge).
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans_) {
    if (s.ctx.active()) by_id.emplace(s.ctx.span_id, &s);
  }
  for (const Span& s : spans_) {
    if (!s.ctx.active() || s.ctx.parent_id == 0) continue;
    const auto it = by_id.find(s.ctx.parent_id);
    if (it == by_id.end() || it->second->pid == s.pid) continue;
    const Span& p = *it->second;
    const std::string ts = f64_str(double(s.begin) / 1000.0);
    os << (first ? "" : ",\n") << "  {\"name\": \"flow\", \"cat\": \"trace\", \"ph\": \"s\", "
       << "\"id\": " << s.ctx.span_id << ", \"pid\": " << p.pid << ", \"tid\": " << p.tid
       << ", \"ts\": " << ts << "},\n"
       << "  {\"name\": \"flow\", \"cat\": \"trace\", \"ph\": \"f\", \"bp\": \"e\", \"id\": "
       << s.ctx.span_id << ", \"pid\": " << s.pid << ", \"tid\": " << s.tid
       << ", \"ts\": " << ts << "}";
    first = false;
  }
  os << "\n]}\n";
}

const char* TraceLog::stage_name(std::size_t stage) {
  static constexpr const char* kNames[kStages] = {"client-queue", "fabric", "engine-queue",
                                                  "service",      "vos",    "media"};
  DAOSIM_REQUIRE(stage < kStages, "stage index %zu out of range", stage);
  return kNames[stage];
}

std::size_t TraceLog::stage_of(const char* category) {
  const std::string_view c = category;
  if (c == "rpc" || c == "xfer") return 1;  // fabric
  if (c == "queue") return 2;               // engine-queue
  if (c == "svc") return 3;                 // service
  if (c == "vos") return 4;                 // vos
  if (c == "media") return 5;               // media
  // op / batch / credit / retry and background roots (tx, rebuild, probe):
  // client-side or self time, claimed only when no deeper span covers it.
  return 0;
}

std::uint64_t TraceLog::StageBreakdown::total_ns() const {
  std::uint64_t t = 0;
  for (const std::uint64_t v : ns) t += v;
  return t;
}

namespace {

/// Stage breakdown of one trace's spans (keyed by span id — sorted, so the
/// tie-breaks below are deterministic and "smaller span id wins" falls out
/// of iteration order). Shared by attribute() and profile_ops().
TraceLog::StageBreakdown attribute_group(const std::map<std::uint64_t, const TraceLog::Span*>& by_id,
                                         const TraceLog::Span* root) {
  using Span = TraceLog::Span;
  TraceLog::StageBreakdown out;
  if (root == nullptr) return out;
  // Depth (hops to the root) decides segment ownership: deepest span wins.
  std::map<std::uint64_t, std::size_t> depth;
  for (const auto& [id, sp] : by_id) {
    std::size_t d = 0;
    const Span* cur = sp;
    while (cur->ctx.parent_id != 0 && d <= by_id.size()) {
      const auto it = by_id.find(cur->ctx.parent_id);
      if (it == by_id.end()) break;  // orphan: treat its link as the root
      cur = it->second;
      ++d;
    }
    depth[id] = d;
  }
  // Segment the root interval at every span boundary; charge each segment to
  // the deepest covering span (tie: later stage, then smaller span id). The
  // segments partition [root.begin, root.end], so stage times sum exactly to
  // the root duration.
  std::vector<sim::Time> cuts{root->begin, root->end};
  for (const auto& [id, sp] : by_id) {
    if (sp->begin > root->begin && sp->begin < root->end) cuts.push_back(sp->begin);
    if (sp->end > root->begin && sp->end < root->end) cuts.push_back(sp->end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const sim::Time a = cuts[i];
    const sim::Time b = cuts[i + 1];
    std::size_t win_stage = 0;
    std::size_t win_depth = 0;
    bool found = false;
    for (const auto& [id, sp] : by_id) {
      if (sp->begin > a || sp->end < b) continue;  // does not cover [a, b]
      const std::size_t d = depth[id];
      const std::size_t st = TraceLog::stage_of(sp->category);
      if (!found || d > win_depth || (d == win_depth && st > win_stage)) {
        found = true;
        win_depth = d;
        win_stage = st;
      }
    }
    out.ns[win_stage] += b - a;  // the root always covers, so found holds
  }
  return out;
}

}  // namespace

TraceLog::StageBreakdown TraceLog::attribute(std::uint64_t trace_id) const {
  std::map<std::uint64_t, const Span*> by_id;
  const Span* root = nullptr;
  for (const Span& s : spans_) {
    if (s.ctx.trace_id != trace_id || !s.ctx.active()) continue;
    by_id.emplace(s.ctx.span_id, &s);
    if (s.ctx.parent_id == 0) root = &s;
  }
  return attribute_group(by_id, root);
}

std::map<std::string, TraceLog::OpProfile> TraceLog::profile_ops() const {
  // Group spans by trace id once, then attribute each sampled op's tree.
  std::map<std::uint64_t, std::map<std::uint64_t, const Span*>> traces;
  std::map<std::uint64_t, const Span*> roots;
  for (const Span& s : spans_) {
    if (!s.ctx.active()) continue;
    traces[s.ctx.trace_id].emplace(s.ctx.span_id, &s);
    if (s.ctx.parent_id == 0 && std::string_view(s.category) == "op") {
      roots[s.ctx.trace_id] = &s;
    }
  }
  std::map<std::string, OpProfile> out;
  for (const auto& [trace_id, root] : roots) {
    const StageBreakdown bd = attribute_group(traces[trace_id], root);
    OpProfile& p = out[root->name];
    ++p.count;
    for (std::size_t st = 0; st < kStages; ++st) p.stages.ns[st] += bd.ns[st];
  }
  return out;
}

void TraceLog::write_slow_ops(std::ostream& os, sim::Time threshold, std::size_t top_k) const {
  std::vector<const Span*> ops;
  for (const Span& s : spans_) {
    if (std::string_view(s.category) == "op" && s.ctx.active() && s.ctx.parent_id == 0 &&
        s.end - s.begin >= threshold) {
      ops.push_back(&s);
    }
  }
  std::sort(ops.begin(), ops.end(), [](const Span* a, const Span* b) {
    const sim::Time da = a->end - a->begin;
    const sim::Time db = b->end - b->begin;
    if (da != db) return da > db;
    if (a->begin != b->begin) return a->begin < b->begin;
    return a->ctx.span_id < b->ctx.span_id;
  });
  if (ops.size() > top_k) ops.resize(top_k);
  os << "slow ops >= " << threshold << " ns: " << ops.size() << "\n";
  for (const Span* sp : ops) {
    const StageBreakdown bd = attribute(sp->ctx.trace_id);
    os << strfmt("  trace %" PRIu64 " pid %u %s: %" PRIu64 " ns", sp->ctx.trace_id, sp->pid,
                 sp->name.c_str(), sp->end - sp->begin);
    for (std::size_t st = 0; st < kStages; ++st) {
      os << strfmt(" | %s %" PRIu64, stage_name(st), bd.ns[st]);
    }
    os << "\n";
  }
}

}  // namespace daosim::telemetry
