#include "rebuild/rebuild.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <utility>

#include "client/object_class.hpp"
#include "client/placement.hpp"

namespace daosim::rebuild {

namespace {
/// Trace tag folded into the deterministic run hash per applied entry.
constexpr std::uint64_t kTraceRebuildPull = 0xFA17E008'0000'0000ULL;

constexpr int kFetchAttempts = 3;
constexpr int kDoneAttempts = 16;
constexpr sim::Time kDoneRetryDelay = 20 * sim::kMs;
}  // namespace

RebuildService::RebuildService(engine::Engine& eng, pool::PoolMap base_map,
                               std::vector<net::NodeId> svc_nodes, RebuildConfig cfg)
    : eng_(eng),
      sched_(eng.endpoint().domain().scheduler()),
      base_map_(std::move(base_map)),
      svc_(sched_, std::move(svc_nodes), {kDoneAttempts, kDoneRetryDelay},
           [this](net::NodeId dst, net::Body body, std::uint64_t) {
             return eng_.endpoint().call(dst, engine::kOpPoolSvc, std::move(body), 128);
           }),
      cfg_(cfg),
      inflight_(sched_, cfg.max_inflight) {
  DAOSIM_REQUIRE(cfg.max_inflight >= 1, "rebuild needs at least one transfer slot");
  eng_.endpoint().register_handler(
      engine::kOpRebuildScan, [this](net::Request req) { return on_scan(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpRebuildFetch, [this](net::Request req) { return on_fetch(std::move(req)); });
  telemetry::Registry& reg = eng_.telemetry();
  records_pulled_ = &reg.find_or_create<telemetry::Counter>("rebuild/records_pulled");
  bytes_pulled_ = &reg.find_or_create<telemetry::Counter>("rebuild/bytes_pulled");
  resync_bytes_ = &reg.find_or_create<telemetry::Counter>("rebuild/resync_bytes");
  task_time_ = &reg.find_or_create<telemetry::DurationHistogram>("rebuild/task_time_ns");
}

sim::CoTask<net::Reply> RebuildService::on_scan(net::Request req) {
  const auto& r = req.body.get<engine::RebuildScanReq>();
  // Resync targeting this engine: pin the destination-side epoch floors now
  // (first receipt wins), before any pulled window image can be applied.
  if (r.resync && r.reint_node == eng_.node()) record_task_floors(r.version);
  if (!r.assign) {
    engine::RebuildScanResp resp = scan_local(r);
    const std::uint64_t wire = 128 + 64 * resp.entries.size();
    co_return net::Reply{Errno::ok, wire, net::Body::make(std::move(resp))};
  }
  if (completed_.contains(r.version)) {
    // Re-driven task (lost reply or a new leader resuming): the local work is
    // done, only the Raft-committed done marker is missing. Report again; the
    // state machine dup-guards.
    sim::CoTask<void> rep = report_done(r.version);
    sched_.spawn(std::move(rep));
  } else if (active_.insert(r.version).second) {
    sim::CoTask<void> run = run_assignment(r.version, r.entries);
    sched_.spawn(std::move(run));
  }
  // Already active: the running assignment will report when it lands.
  co_return net::Reply{Errno::ok, 64, {}};
}

sim::CoTask<net::Reply> RebuildService::on_fetch(net::Request req) {
  const auto& r = req.body.get<engine::RebuildFetchReq>();
  engine::RebuildFetchResp resp = fetch_records(r);
  // Source-side cost: the export streams through the target's xstream and
  // media read path like a foreground fetch. req.ctx links the read into the
  // puller's trace tree across the fabric hop.
  co_await eng_.rebuild_read(r.target, resp.bytes, req.ctx);
  const std::uint64_t wire = engine::kObjRpcHeader + resp.bytes;
  co_return net::Reply{Errno::ok, wire, net::Body::make(std::move(resp))};
}

engine::RebuildScanResp RebuildService::scan_local(const engine::RebuildScanReq& req) {
  engine::RebuildScanResp resp;
  const std::uint32_t n = base_map_.target_count();

  // Health views derived from the task's exclusion set (not live health, so a
  // re-driven scan is deterministic). The resync `window` view additionally
  // excludes the reintegrating engine: it is the layout clients wrote against
  // while that engine was away, i.e. where the window's data lives.
  const auto is_excluded = [&req](net::NodeId e) {
    return std::find(req.excluded.begin(), req.excluded.end(), e) != req.excluded.end();
  };
  pool::PoolMap degraded = base_map_;
  for (auto& t : degraded.targets) {
    t.health = is_excluded(t.engine) ? pool::TargetHealth::excluded : pool::TargetHealth::up;
  }
  pool::PoolMap window = degraded;
  if (req.resync) {
    for (auto& t : window.targets) {
      if (t.engine == req.reint_node) t.health = pool::TargetHealth::excluded;
    }
  }
  const auto degraded_out = [&degraded](std::uint32_t t) {
    return degraded.targets[t].health == pool::TargetHealth::excluded;
  };

  for (std::uint32_t mi = 0; mi < n; ++mi) {
    if (base_map_.targets[mi].engine != eng_.node()) continue;
    const std::uint32_t ti = base_map_.targets[mi].target;
    vos::VosTarget& vt = eng_.vos_target(ti);
    for (const vos::Uuid& uuid : vt.list_containers()) {
      const vos::VosContainer* cont = vt.find_container(uuid);
      if (cont == nullptr) continue;
      if (!req.resync) {
        // Epoch mark for a later reintegration resync: only records newer
        // than this need to flow back. emplace keeps the first mark, so a
        // re-driven scan does not advance it.
        marks_.emplace(std::make_tuple(req.version, ti, uuid), cont->current_epoch());
      }
      vos::Epoch mark = 0;
      if (req.resync) {
        const auto it = marks_.find(std::make_tuple(req.since_version, ti, uuid));
        if (it != marks_.end()) mark = it->second;
      }
      for (const vos::ObjId oid : cont->list_objects()) {
        const auto clsb = std::uint8_t(oid.hi >> 56);
        if (clsb < 1 || clsb > 8) continue;  // not a classed object
        const auto cls = client::ObjClass(clsb);
        const std::uint32_t reps = client::replica_count(cls);
        if (reps < 2) continue;  // unreplicated: nothing to heal
        const std::uint32_t groups = client::group_count(cls, n);
        const client::GroupLayout nominal =
            client::compute_nominal_layout(oid, groups, reps, base_map_);
        if (!req.resync) {
          const client::GroupLayout current =
              client::compute_group_layout(oid, groups, reps, degraded);
          for (std::uint32_t g = 0; g < groups; ++g) {
            // Canonical source: the first surviving nominal replica. A group
            // with no survivor cannot be rebuilt (clients see data_loss).
            std::uint32_t src = n;
            for (std::uint32_t r = 0; r < reps; ++r) {
              if (!degraded_out(nominal.at(g, r))) {
                src = nominal.at(g, r);
                break;
              }
            }
            if (src != mi) continue;  // another target/engine is canonical
            for (std::uint32_t r = 0; r < reps; ++r) {
              if (!degraded_out(nominal.at(g, r))) continue;  // replica survives
              const std::uint32_t dst = current.at(g, r);
              if (dst == src || degraded_out(dst)) continue;
              resp.entries.push_back({uuid, oid, g, src, dst, 0, false});
            }
          }
        } else {
          // Resync: the engine that covered for the reintegrated replica
          // during the window pushes the epoch diff back to the nominal slot.
          const client::GroupLayout windowl =
              client::compute_group_layout(oid, groups, reps, window);
          for (std::uint32_t g = 0; g < groups; ++g) {
            for (std::uint32_t r = 0; r < reps; ++r) {
              const std::uint32_t dst = nominal.at(g, r);
              if (base_map_.targets[dst].engine != req.reint_node) continue;
              const std::uint32_t src = windowl.at(g, r);
              if (src != mi || src == dst) continue;
              resp.entries.push_back({uuid, oid, g, src, dst, mark, true});
            }
          }
        }
      }
    }
  }
  return resp;
}

engine::RebuildFetchResp RebuildService::fetch_records(const engine::RebuildFetchReq& req) const {
  engine::RebuildFetchResp resp;
  const vos::VosContainer* cont = eng_.vos_target(req.target).find_container(req.cont);
  if (cont == nullptr) return resp;
  const std::uint32_t groups =
      client::group_count(client::class_of(req.oid), base_map_.target_count());
  for (auto& rec : cont->export_object(req.oid, req.min_epoch)) {
    // Same group routing the client uses: array dkeys are decimal chunk
    // indices, KV dkeys hash the key string.
    const std::uint32_t g =
        rec.is_array
            ? client::array_chunk_group(req.oid, std::strtoull(rec.dkey.c_str(), nullptr, 10),
                                        groups)
            : client::kv_dkey_group(rec.dkey, groups);
    if (g != req.group) continue;
    engine::RebuildRecord out;
    out.dkey = std::move(rec.dkey);
    out.akey = std::move(rec.akey);
    out.type = rec.is_array ? engine::RecordType::array : engine::RecordType::single_value;
    out.length = rec.length;
    if (!rec.data.empty()) {
      out.data = std::make_shared<std::vector<std::byte>>(std::move(rec.data));
    }
    resp.bytes += out.length;
    resp.records.push_back(std::move(out));
  }
  resp.array_end = cont->array_end_hint(req.oid);
  return resp;
}

void RebuildService::note_restart() {
  for (std::uint32_t t = 0; t < eng_.target_count(); ++t) {
    vos::VosTarget& vt = eng_.vos_target(t);
    for (const vos::Uuid& uuid : vt.list_containers()) {
      if (const vos::VosContainer* cont = vt.find_container(uuid)) {
        // Latest restart wins: each crash/restart cycle starts a new
        // eviction generation, and only the newest one can have a pending
        // resync (a re-eviction supersedes and drops the old resync task).
        restart_floors_[{t, uuid}] = cont->current_epoch();
      }
    }
  }
}

void RebuildService::record_task_floors(std::uint32_t version) {
  if (task_floors_.contains(version)) return;
  auto& floors = task_floors_[version];
  for (std::uint32_t t = 0; t < eng_.target_count(); ++t) {
    vos::VosTarget& vt = eng_.vos_target(t);
    for (const vos::Uuid& uuid : vt.list_containers()) {
      const vos::VosContainer* cont = vt.find_container(uuid);
      if (cont == nullptr) continue;
      const auto it = restart_floors_.find({t, uuid});
      // No restart floor (live eviction, no crash): fall back to the clock
      // at first receipt. Post-reint writes racing ahead of this RPC slip
      // under the fallback floor — a window the restart path closes.
      floors[{t, uuid}] = it != restart_floors_.end() ? it->second : cont->current_epoch();
    }
  }
}

vos::Epoch RebuildService::min_resync_floor() const {
  vos::Epoch floor = vos::kEpochMax;
  // Restart floors stay live after the resync that consumed them: a future
  // eviction of this engine pins its task floors from the same marks, so
  // aggregation stays conservative below the newest restart generation.
  for (const auto& [key, e] : restart_floors_) floor = std::min(floor, e);
  for (const auto& [version, floors] : task_floors_) {
    if (completed_.contains(version)) continue;
    for (const auto& [key, e] : floors) floor = std::min(floor, e);
  }
  return floor;
}

vos::Epoch RebuildService::task_floor(std::uint32_t version, std::uint32_t target,
                                      const vos::Uuid& cont) const {
  const auto it = task_floors_.find(version);
  if (it == task_floors_.end()) return 0;
  const auto fit = it->second.find({target, cont});
  return fit != it->second.end() ? fit->second : 0;
}

sim::CoTask<void> RebuildService::run_assignment(std::uint32_t version,
                                                 std::vector<engine::RebuildEntry> entries) {
  const sim::Time t0 = sched_.now();
  // Every assignment is a trace root (no sampling — rebuilds are rare and
  // always worth a tree); the id allocation is a pure counter bump.
  const sim::TraceContext ctx = sim::TraceContext::root(sched_.alloc_span_id());
  auto failed = std::make_shared<bool>(false);
  sim::WaitGroup wg(sched_);
  for (const auto& e : entries) {
    wg.spawn(pull_entry(version, e, ctx, failed));
  }
  co_await wg.wait();
  active_.erase(version);
  task_time_->record(sched_.now() - t0);
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("rebuild", strfmt("task v%u%s", version, *failed ? " (failed)" : ""),
               eng_.node(), version, t0, sched_.now(), ctx);
  }
  if (*failed) co_return;  // coordinator re-drives the task next tick
  completed_.insert(version);
  co_await report_done(version);
}

sim::CoTask<void> RebuildService::pull_entry(std::uint32_t version, engine::RebuildEntry entry,
                                             sim::TraceContext ctx,
                                             std::shared_ptr<bool> failed) {
  // Throttle: at most cfg_.max_inflight transfers pull concurrently, so
  // rebuild never monopolises the engine's xstreams and media bandwidth.
  co_await inflight_.acquire();
  ++cur_inflight_;
  peak_inflight_ = std::max(peak_inflight_, cur_inflight_);

  engine::RebuildFetchReq req;
  req.cont = entry.cont;
  req.oid = entry.oid;
  req.target = base_map_.targets[entry.src].target;
  req.group = entry.group;
  req.min_epoch = entry.min_epoch;

  const net::NodeId src_engine = base_map_.targets[entry.src].engine;
  engine::RebuildFetchResp resp;
  bool ok = false;
  if (src_engine == eng_.node()) {
    // Source and destination share this engine: skip the fabric, still pay
    // the source-side read.
    resp = fetch_records(req);
    co_await eng_.rebuild_read(req.target, resp.bytes, ctx);
    ok = true;
  } else {
    for (int attempt = 0; attempt < kFetchAttempts && !ok; ++attempt) {
      net::Body body = net::Body::make(req);
      net::Reply r = co_await eng_.endpoint().call(src_engine, engine::kOpRebuildFetch,
                                                   std::move(body), 256, ctx);
      if (r.status == Errno::ok) {
        resp = std::move(r.body.get<engine::RebuildFetchResp>());
        ok = true;
      }
    }
  }
  if (!ok) {
    *failed = true;
  } else {
    apply_records(version, entry, resp);
    co_await eng_.rebuild_write(base_map_.targets[entry.dst].target, resp.bytes, ctx);
    sched_.trace_note(kTraceRebuildPull ^ entry.oid.lo ^ (std::uint64_t(entry.dst) << 32));
  }
  --cur_inflight_;
  inflight_.release();
}

void RebuildService::apply_records(std::uint32_t version, const engine::RebuildEntry& entry,
                                   const engine::RebuildFetchResp& resp) {
  const std::uint32_t ti = base_map_.targets[entry.dst].target;
  vos::VosContainer& cont = eng_.vos_target(ti).container(entry.cont);
  const bool store = cont.payload_mode() == vos::PayloadMode::store;
  // Resync cut: records the destination wrote at or below the floor are
  // pre-eviction state the window image supersedes; anything above it is an
  // acknowledged post-reintegration client write that must stay on top.
  const vos::Epoch floor = entry.resync ? task_floor(version, ti, entry.cont) : 0;
  for (const auto& rec : resp.records) {
    if (rec.type == engine::RecordType::single_value) {
      // Eviction rebuild: a value already present here landed during the
      // degraded window (this destination held nothing for the group before)
      // and is newer than the pulled image — keep it. A resync overwrites
      // pre-eviction state, but skips values (and punches) this replica
      // wrote after reintegration: those are newer than the window image.
      if (!entry.resync && cont.kv_get(entry.oid, rec.dkey, rec.akey, vos::kEpochMax).exists) {
        ++records_;
        continue;
      }
      if (entry.resync && cont.kv_latest_epoch(entry.oid, rec.dkey, rec.akey) > floor) {
        ++records_;
        continue;
      }
      std::span<const std::byte> val;
      if (rec.data != nullptr) val = std::span<const std::byte>(*rec.data);
      cont.kv_put(entry.oid, rec.dkey, rec.akey, val, cont.next_epoch());
    } else {
      // VOS epochs are append-only, so the pulled image must land at a fresh
      // epoch. To keep it from shadowing newer local bytes, merge those over
      // the image first: for an eviction rebuild everything local is newer
      // (degraded-window writes); for a resync only bytes written after the
      // reintegration floor are (pre-eviction bytes lose to the image).
      std::vector<std::byte> img(rec.length, std::byte{0});
      if (store && rec.data != nullptr) {
        std::copy(rec.data->begin(), rec.data->end(), img.begin());
      }
      const std::uint64_t local_size =
          cont.array_size(entry.oid, rec.dkey, rec.akey, vos::kEpochMax);
      if (local_size > img.size()) img.resize(local_size, std::byte{0});
      if (store && (local_size > 0 || entry.resync)) {
        std::vector<std::byte> local(img.size());
        std::vector<bool> mask;
        cont.array_read_masked(entry.oid, rec.dkey, rec.akey, 0, local, mask, vos::kEpochMax);
        if (entry.resync) {
          // Only bytes touched after the floor are newer than the image; a
          // post-reint punch masks too (its bytes read back as zeros).
          mask.assign(img.size(), false);
          cont.array_mask_newer(entry.oid, rec.dkey, rec.akey, 0, floor, mask);
        }
        for (std::size_t i = 0; i < img.size(); ++i) {
          if (mask[i]) img[i] = local[i];
        }
      }
      const auto data = store ? std::span<const std::byte>(img) : std::span<const std::byte>();
      cont.array_write(entry.oid, rec.dkey, rec.akey, 0, img.size(), data, cont.next_epoch());
    }
    ++records_;
    records_pulled_->inc();
  }
  if (resp.array_end > 0) cont.note_array_end(entry.oid, resp.array_end);
  bytes_ += resp.bytes;
  bytes_pulled_->inc(resp.bytes);
  if (entry.resync) resync_bytes_->inc(resp.bytes);
}

sim::CoTask<void> RebuildService::report_done(std::uint32_t version) {
  // Any outcome will do, giving up included: the coordinator re-drives
  // incomplete tasks, the assign handler re-reports from completed_, and the
  // state machine dup-guards.
  (void)co_await svc_.run(pool::RebuildDone{eng_.node(), version});
}

}  // namespace daosim::rebuild
