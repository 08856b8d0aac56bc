// d_tm-style hierarchical telemetry: a path-addressed tree of counters,
// gauges, stat-gauges and duration histograms, one Registry root per engine,
// client, pool service and fabric, plus deterministic CSV/JSON exporters and
// a Chrome trace-event span sink. All instrumentation is passive — recording
// a metric never schedules an event, so enabling telemetry leaves
// Scheduler::trace_hash() and every simulated timing bit-identical.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace daosim::telemetry {

/// Causal trace context (trace_id / span_id / parent_id) threaded through the
/// request path. Defined in sim so SpanSink can carry it; re-exported here
/// because telemetry is its natural home for users.
using TraceContext = sim::TraceContext;

enum class Kind : std::uint8_t { counter, gauge, stat_gauge, histogram, probe };

const char* kind_name(Kind k);

/// One exported (field, preformatted value) pair of a node. Values are
/// formatted once, deterministically, so CSV and JSON dumps are byte-stable.
struct Field {
  const char* name;
  std::string value;
};

/// Base of every metric node in a Registry tree.
class Node {
 public:
  explicit Node(Kind k) : kind_(k) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Kind kind() const { return kind_; }
  /// Appends this node's fields in a fixed order.
  virtual void fields(std::vector<Field>& out) const = 0;

 private:
  Kind kind_;
};

/// Monotonic event count (d_tm counter).
class Counter final : public Node {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void fields(std::vector<Field>& out) const override;

 private:
  friend class Registry;
  Counter() : Node(Kind::counter) {}
  std::uint64_t value_ = 0;
};

/// Instantaneous level with a high-water mark (d_tm gauge).
class Gauge final : public Node {
 public:
  void set(std::int64_t v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void add(std::int64_t d) { set(value_ + d); }
  std::int64_t value() const { return value_; }
  std::int64_t max_seen() const { return max_; }
  void fields(std::vector<Field>& out) const override;

 private:
  friend class Registry;
  Gauge() : Node(Kind::gauge) {}
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Gauge with streaming statistics over every sampled level (d_tm stats
/// gauge); wraps the existing sim::Summary.
class StatGauge final : public Node {
 public:
  void sample(double v) { stats_.add(v); }
  const sim::Summary& stats() const { return stats_; }
  void fields(std::vector<Field>& out) const override;

 private:
  friend class Registry;
  StatGauge() : Node(Kind::stat_gauge) {}
  sim::Summary stats_;
};

/// Fixed-bucket duration histogram over simulated nanoseconds: 65 log2
/// buckets (bucket k counts durations with bit_width k, i.e. [2^(k-1), 2^k)),
/// plus exact count/sum/min/max. Snapshots are plain values, so callers can
/// diff two snapshots to get a per-phase histogram.
class DurationHistogram final : public Node {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Value snapshot of a histogram; supports merge (+=), per-phase delta (-)
  /// and bucket-interpolated percentiles.
  struct State {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;  // meaningful only when count > 0
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    State& operator+=(const State& o);
    /// Bucket-wise difference `*this - earlier`; min/max are not recoverable
    /// from a delta and come back as 0 (percentile() then clamps to bucket
    /// bounds only).
    State operator-(const State& earlier) const;
    double mean_ns() const { return count ? double(sum_ns) / double(count) : 0.0; }
    /// p in [0, 100]; linear interpolation inside the covering bucket,
    /// clamped to the exact min/max when they are known. 0.0 when empty.
    double percentile_ns(double p) const;
  };

  void record(sim::Time ns);
  const State& state() const { return s_; }
  State snapshot() const { return s_; }
  void fields(std::vector<Field>& out) const override;

 private:
  friend class Registry;
  DurationHistogram() : Node(Kind::histogram) {}
  State s_;
};

/// Value polled at dump time from a callback — exports counters that live as
/// plain members elsewhere (VOS tree stats, pool-service task counts)
/// without coupling those layers to telemetry.
class Probe final : public Node {
 public:
  std::uint64_t value() const { return fn_(); }
  void fields(std::vector<Field>& out) const override;

 private:
  friend class Registry;
  explicit Probe(std::function<std::uint64_t()> fn) : Node(Kind::probe), fn_(std::move(fn)) {}
  std::function<std::uint64_t()> fn_;
};

/// One metric tree root ("engine/3", "client/12", "pool/0", "fabric").
/// Nodes are addressed by '/'-separated paths below the root and stored in a
/// sorted map, so iteration — and therefore every dump — is deterministic.
class Registry {
 public:
  explicit Registry(std::string root) : root_(std::move(root)) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const std::string& root() const { return root_; }

  /// Returns the node at `path`, creating it if absent. The only way to
  /// materialize a metric: the node constructors are private to Registry, so
  /// a node outside a tree does not compile. Rejects a path already holding a
  /// different kind.
  template <typename T>
  T& find_or_create(const std::string& path) {
    auto it = nodes_.find(path);
    if (it == nodes_.end()) it = nodes_.emplace(path, std::unique_ptr<T>(new T())).first;
    T* p = dynamic_cast<T*>(it->second.get());
    DAOSIM_REQUIRE(p != nullptr, "telemetry node %s/%s already exists with kind %s",
                   root_.c_str(), path.c_str(), kind_name(it->second->kind()));
    return *p;
  }

  /// Probes carry a callback, so they get a dedicated registration.
  Probe& add_probe(const std::string& path, std::function<std::uint64_t()> fn);

  /// Lookup without creation; nullptr when absent or of another kind.
  template <typename T>
  const T* find(const std::string& path) const {
    const auto it = nodes_.find(path);
    return it == nodes_.end() ? nullptr : dynamic_cast<const T*>(it->second.get());
  }

  const std::map<std::string, std::unique_ptr<Node>>& nodes() const { return nodes_; }

 private:
  std::string root_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
};

enum class DumpFormat : std::uint8_t { csv, json };

/// Snapshot dump of a set of registries, rows sorted by full path
/// (`<root>/<path>`). Byte-identical across same-seed runs.
void write_csv(std::ostream& os, const std::vector<const Registry*>& regs);
void write_json(std::ostream& os, const std::vector<const Registry*>& regs);
void write_dump(std::ostream& os, const std::vector<const Registry*>& regs, DumpFormat fmt);

/// Span sink accumulating structured trace events, serializable as Chrome
/// trace-event JSON (chrome://tracing, Perfetto). Spans carry their causal
/// TraceContext; cross-process parent/child edges become Perfetto flow
/// events ("s"/"f") so the viewer draws arrows between nodes.
class TraceLog final : public sim::SpanSink {
 public:
  struct Span {
    const char* category;
    std::string name;
    std::uint32_t pid;
    std::uint64_t tid;
    sim::Time begin;
    sim::Time end;
    TraceContext ctx;
  };

  void span(const char* category, std::string name, std::uint32_t pid, std::uint64_t tid,
            sim::Time begin, sim::Time end, TraceContext ctx = {}) override;

  /// Labels a pid track in the viewer ("engine/3", "client/12").
  void set_process_name(std::uint32_t pid, std::string name);

  std::size_t size() const { return spans_.size(); }
  /// Count of recorded spans in `category`.
  std::size_t count(const std::string& category) const;
  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_json(std::ostream& os) const;

  // -- Critical-path attribution ------------------------------------------
  // Six pipeline stages; every span category maps to one. tools/
  // trace_analyze.py implements the identical segmentation so in-process and
  // offline breakdowns agree.
  static constexpr std::size_t kStages = 6;
  static const char* stage_name(std::size_t stage);
  /// Stage index for a span category ("rpc" -> fabric, "vos" -> vos, ...).
  /// Root/self categories ("op", "tx", "rebuild", "probe", ...) map to the
  /// client-queue stage — time no deeper span claims.
  static std::size_t stage_of(const char* category);

  struct StageBreakdown {
    std::array<std::uint64_t, kStages> ns{};
    std::uint64_t total_ns() const;
  };

  /// Attributes the wall time of trace `trace_id`'s root span to stages by
  /// segmenting the root interval at every span boundary and charging each
  /// segment to its deepest covering span (ties: later pipeline stage, then
  /// smaller span id). Segments always partition the root interval exactly,
  /// so the breakdown sums to the root's duration.
  StageBreakdown attribute(std::uint64_t trace_id) const;

  /// Per-op-name aggregate: every sampled "op" root span's breakdown, summed
  /// by op name ("arr_write", "kv_put", ...). One pass over the log (spans
  /// grouped by trace id), so profiling a whole IOR job is linear-ish rather
  /// than one full scan per op.
  struct OpProfile {
    std::uint64_t count = 0;
    StageBreakdown stages;  // summed over the ops; divide by count for means
  };
  std::map<std::string, OpProfile> profile_ops() const;

  /// Deterministic slow-op report: client "op" root spans at least
  /// `threshold` long, top `top_k` by (duration desc, begin asc, span id
  /// asc), each with its per-stage breakdown.
  void write_slow_ops(std::ostream& os, sim::Time threshold, std::size_t top_k) const;

  /// When false, spans without an active trace context are dropped at record
  /// time, bounding memory to the sampled traces (bench sweeps run with 1/N
  /// sampling and this off). Default keeps everything, as a raw span log.
  void set_keep_unsampled(bool keep) { keep_unsampled_ = keep; }

 private:
  std::vector<Span> spans_;
  std::map<std::uint32_t, std::string> process_names_;
  bool keep_unsampled_ = true;
};

}  // namespace daosim::telemetry
