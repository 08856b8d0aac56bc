#!/usr/bin/env bash
# daosim CI entrypoint: lint pass + a build/test matrix.
#
#   tools/ci.sh            run everything (lint, RelWithDebInfo, ASan+UBSan)
#   tools/ci.sh lint       lint tree scan + rule self-test, plus the
#                          compile_fail ctests (the invariants the compiler
#                          owns: a configure, no build)
#   tools/ci.sh release    RelWithDebInfo build + ctest only
#   tools/ci.sh asan       ASan+UBSan (+ runtime audits) build + ctest only
#   tools/ci.sh tsan       TSan build + ctest (optional; sim is single-threaded)
#   tools/ci.sh faults     fault-injection suite only (release build; the
#                          asan stage re-runs it under ASan+UBSan)
#   tools/ci.sh rebuild    self-healing redundancy suite only (release build;
#                          the asan stage re-runs it under ASan+UBSan)
#   tools/ci.sh telemetry  telemetry suite only: dump determinism, fault
#                          counters, metrics_diff, plus a live ior_cli run
#                          validating the Chrome trace JSON
#   tools/ci.sh trace      causal-tracing suite only: same-seed trace JSON
#                          determinism, zero-perturbation (trace_hash invariant
#                          to sink/sampling), span-tree well-formedness, the
#                          trace_analyze tool, plus a live seeded ior_cli run
#                          whose flow events and span trees are re-validated
#                          offline with trace_analyze.py --check
#   tools/ci.sh dtx        distributed-transaction suite (2PC, snapshots,
#                          crash recovery, serializability property) under
#                          ASan+UBSan with the runtime audits on — undefined
#                          behaviour in the conflict paths must fail loudly
#   tools/ci.sh swim       membership suite (SWIM failure detection,
#                          refutation, partition heal, IV dissemination,
#                          client staleness piggyback) plus every suite SWIM
#                          drives (retry path, Raft failover, fault and
#                          rebuild determinism, DTX faults) under ASan+UBSan
#                          with the runtime audits on — the detector's
#                          coroutines and gossip buffers must be
#                          lifetime-clean
#   tools/ci.sh agg        evtree + background-aggregation suite (the extent
#                          index property tests against the flat oracle, the
#                          service's floor/determinism/crash battery, and the
#                          DTX/snapshot aggregation pins) under ASan+UBSan
#                          with the runtime audits on, plus the fetch-reply
#                          lifetime and caller-buffer tests — the merge
#                          passes share, slice and compact payload buffers,
#                          stores adopt update buffers and replies slice
#                          stored ones, and all must be lifetime- and UB-clean;
#                          the Rebuild suite too, whose destinations adopt
#                          slices of the source's buffers below their newest
#                          epoch, and the VosPunch suite, whose punch logs
#                          aggregation folds
#   tools/ci.sh bench-smoke  Release -Werror build (what perfbench measures);
#                          tiny-scale ablation_xfersize + ablation_dtx +
#                          ablation_membership + ablation_overwrite runs
#                          asserting the BENCH_*.json perf trajectories parse,
#                          are non-empty, and that background aggregation
#                          keeps the overwrite endurance read cost flat
#                          (<= 1.2x first pass) while the agg-off series
#                          grows; the xfersize, dtx and membership smoke rows
#                          and the full-size fig1/fig2/ablation_overwrite
#                          rows must also match bench/baselines/ exactly on
#                          every column but wall_s (the overwrite rows' probe
#                          columns pin VOS read-side probe accounting)
#   tools/ci.sh analyze    libclang suspension-safety analyzer: rule self-test
#                          on the seeded fixtures, then the AST scan of every
#                          src/ TU via compile_commands.json. Standalone runs
#                          --require (missing libclang fails); under `all` it
#                          skips gracefully so bare local hosts stay green.
#
# Every configuration runs the full ctest suite, which itself includes the
# lint tree scan, the lint self-test and the compile_fail tests, so `ctest`
# alone also catches violations.
# A per-stage wall-clock summary prints on exit (also after a failure, for the
# stages that completed).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
STAGE=${1:-all}

STAGE_SUMMARY=""
_stage_name=""
_stage_t0=0
stage_begin() { _stage_name=$1; _stage_t0=$SECONDS; }
stage_end() {
  STAGE_SUMMARY+=$(printf '  %-12s %4ds' "$_stage_name" $((SECONDS - _stage_t0)))$'\n'
}
print_stage_summary() {
  if [[ -n $STAGE_SUMMARY ]]; then
    echo "=== stage timing ==="
    printf '%s' "$STAGE_SUMMARY"
  fi
}
trap print_stage_summary EXIT

# Every matrix configuration builds warning-clean: -Werror rides in on the
# command line, so the CMake files carry no option for it.
run_config() {
  local name=$1
  shift
  echo "=== [$name] configure: $* ==="
  cmake -B "build-ci-$name" -S . -DCMAKE_CXX_FLAGS=-Werror "$@"
  echo "=== [$name] build ==="
  cmake --build "build-ci-$name" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "build-ci-$name" --output-on-failure -j "$JOBS"
}

if [[ $STAGE == lint || $STAGE == all ]]; then
  stage_begin lint
  echo "=== [lint] tree scan + rule self-test ==="
  python3 tools/lint/daosim_lint.py --root .
  python3 tools/lint/daosim_lint.py --self-test --root .
  echo "=== [lint] compile_fail ctests ==="
  cmake -B build-ci-lint -S .
  ctest --test-dir build-ci-lint --output-on-failure -j "$JOBS" -L compile_fail
  stage_end
fi

if [[ $STAGE == release || $STAGE == all ]]; then
  stage_begin release
  run_config release -DCMAKE_BUILD_TYPE=RelWithDebInfo
  stage_end
fi

if [[ $STAGE == asan || $STAGE == all ]]; then
  stage_begin asan
  # Audits ride along with the sanitizer config: same "slow but thorough"
  # budget, and ASan stack traces make audit failures easy to localise.
  run_config asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAOSIM_SANITIZE="address;undefined" -DDAOSIM_AUDIT=ON
  stage_end
fi

if [[ $STAGE == tsan ]]; then
  stage_begin tsan
  run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDAOSIM_SANITIZE=thread
  stage_end
fi

if [[ $STAGE == faults ]]; then
  stage_begin faults
  # Focused fault-injection run: crash/restart/drop/delay/stall schedules,
  # retry/backoff, eviction, Raft failover, and seeded-trace determinism.
  echo "=== [faults] configure + build ==="
  cmake -B build-ci-faults -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ci-faults -j "$JOBS" --target fault_test
  echo "=== [faults] ctest ==="
  ctest --test-dir build-ci-faults --output-on-failure -j "$JOBS" \
    -R 'FaultSchedule|FaultDeterminism|FaultAcceptance|FaultDelayOnly|RetryBackoff|RetryPath|RaftFailover|Idempotency|RpcInflight|Placement\.'
  stage_end
fi

if [[ $STAGE == rebuild ]]; then
  stage_begin rebuild
  # Focused self-healing run: replicated placement, the rebuild-task state
  # machine, degraded reads/data-loss, crash-mid-IOR healing, reintegration
  # resync, and seeded rebuild-trace determinism.
  echo "=== [rebuild] configure + build ==="
  cmake -B build-ci-rebuild -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ci-rebuild -j "$JOBS" --target rebuild_test determinism_test
  echo "=== [rebuild] ctest ==="
  ctest --test-dir build-ci-rebuild --output-on-failure -j "$JOBS" \
    -R 'GroupPlacement|RebuildSm|Rebuild\.|RebuildDeterminism'
  stage_end
fi

if [[ $STAGE == telemetry ]]; then
  stage_begin telemetry
  # Focused observability run: metric-tree unit tests, byte-identical
  # same-seed dumps (easy/hard x DFS/MPI-IO/HDF5), span-sink invariance,
  # exact fault counters, and the metrics_diff tool against real dumps.
  echo "=== [telemetry] configure + build ==="
  cmake -B build-ci-telemetry -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ci-telemetry -j "$JOBS" --target telemetry_test ior_cli
  echo "=== [telemetry] ctest ==="
  ctest --test-dir build-ci-telemetry --output-on-failure -j "$JOBS" \
    -R 'Registry\.|Histogram\.|Dump|Trace\.|SpanSink|FaultCounters|BatchTelemetry|StatsEmpty|tools.metrics_diff'
  echo "=== [telemetry] trace export validates ==="
  build-ci-telemetry/examples/ior_cli -a DFS -t 1m -b 4m -N 2 -n 4 -S 2 \
    --metrics-dump=build-ci-telemetry/metrics.json \
    --trace-out=build-ci-telemetry/trace.json
  python3 - <<'EOF'
import json
trace = json.load(open("build-ci-telemetry/trace.json"))
events = trace["traceEvents"]
assert events, "trace is empty"
cats = {e.get("cat") for e in events if e.get("ph") == "X"}
assert {"rpc", "xfer", "media"} <= cats, f"missing span categories: {cats}"
metrics = json.load(open("build-ci-telemetry/metrics.json"))
assert any(p.endswith("rpc/update/sent") for p in metrics), "metrics dump is empty"
print(f"trace OK: {len(events)} events, categories {sorted(c for c in cats if c)}")
EOF
  stage_end
fi

if [[ $STAGE == trace ]]; then
  stage_begin trace
  # Focused causal-tracing run: trace determinism (byte-identical same-seed
  # JSON, trace_hash invariant to sink attachment and sampling rate), span
  # trees (every sampled op one well-formed cross-node tree; DTX 2PC and
  # crash->rebuild chains as single traces), stage attribution partitioning
  # every root exactly, the slow-op report, and the offline analyzer. Then a
  # live seeded hard-mode ior_cli run re-validated from the outside: flow
  # events must reference emitted span ids, and trace_analyze.py --check must
  # reassemble the trees with zero orphans.
  echo "=== [trace] configure + build ==="
  cmake -B build-ci-trace -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ci-trace -j "$JOBS" --target tracing_test ior_cli
  echo "=== [trace] ctest ==="
  ctest --test-dir build-ci-trace --output-on-failure -j "$JOBS" \
    -R 'TracingDeterminism|TracingTrees|SlowOps|tools.trace_analyze'
  echo "=== [trace] seeded hard-mode run ==="
  build-ci-trace/examples/ior_cli -a DFS -t 1m -b 4m -N 2 -n 4 -S 2 \
    --trace-out=build-ci-trace/trace.json --critical-path --slow-ops=0
  echo "=== [trace] flow events resolve ==="
  python3 - <<'EOF'
import json
trace = json.load(open("build-ci-trace/trace.json"))
events = trace["traceEvents"]
spans = {e["args"]["span"] for e in events
         if e.get("ph") == "X" and "args" in e and "span" in e["args"]}
assert spans, "no spans in trace"
flows = [e for e in events if e.get("ph") in ("s", "f")]
assert flows, "no flow events in trace"
dangling = [e["id"] for e in flows if e["id"] not in spans]
assert not dangling, f"flow events reference unknown span ids: {dangling[:5]}"
roots = sum(1 for e in events
            if e.get("ph") == "X" and e.get("cat") == "op"
            and e["args"].get("parent") == 0)
assert roots, "no op roots in trace"
print(f"flow OK: {len(flows)} flow events over {len(spans)} spans, {roots} op roots")
EOF
  echo "=== [trace] analyzer --check ==="
  python3 tools/trace_analyze.py build-ci-trace/trace.json --check
  stage_end
fi

if [[ $STAGE == dtx ]]; then
  stage_begin dtx
  # Focused distributed-transaction run under the harshest configuration:
  # ASan+UBSan plus the runtime determinism audits. The DTX paths are the
  # ones that juggle prepared-entry lifetimes across crashes and concurrent
  # coroutines — exactly where a lifetime bug would hide — so this suite
  # always runs sanitized, not just when the full asan stage does.
  echo "=== [dtx] configure + build ==="
  cmake -B build-ci-dtx -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAOSIM_SANITIZE="address;undefined" -DDAOSIM_AUDIT=ON
  cmake --build build-ci-dtx -j "$JOBS" --target dtx_test ior_test
  echo "=== [dtx] ctest ==="
  ctest --test-dir build-ci-dtx --output-on-failure -j "$JOBS" \
    -R 'DtxVos|DtxCluster|DtxFault|DtxProperty|Ior\.ReadAtSnapshot'
  stage_end
fi

if [[ $STAGE == swim ]]; then
  stage_begin swim
  # Focused membership run, always sanitized: the SWIM detector juggles
  # per-member state across probe coroutines and gossip piggybacks, and the
  # IV path resumes parked waiters off a shared single-flight gate — the
  # classic places for a lifetime bug to hide. Covers detection, refutation,
  # partition heal (plus the partition fault grammar/behavior suite), the
  # client staleness piggyback, and seeded-trace determinism. SWIM is the
  # only eviction path, so the suites whose engines die run here too.
  echo "=== [swim] configure + build ==="
  cmake -B build-ci-swim -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAOSIM_SANITIZE="address;undefined" -DDAOSIM_AUDIT=ON
  cmake --build build-ci-swim -j "$JOBS" \
    --target swim_test fault_test dtx_test determinism_test
  echo "=== [swim] ctest ==="
  ctest --test-dir build-ci-swim --output-on-failure -j "$JOBS" \
    -R 'SwimDetect|SwimRefute|SwimPartition|IvPiggyback|SwimDeterminism|PartitionFault|FaultSchedule|RetryPath|RaftFailover|FaultDeterminism|DtxFault|RebuildDeterminism'
  stage_end
fi

if [[ $STAGE == agg ]]; then
  stage_begin agg
  # Focused evtree/aggregation run, always sanitized: splits and the
  # aggregation passes share, slice and compact reference-counted payload
  # buffers and erase version records while read paths hold spans into them,
  # and the service interleaves with DTX commits, snapshots, rebuild floors,
  # and engine crashes — exactly where a dangling span or UB would hide.
  # Stores adopt update buffers and fetch replies carry slices of stored
  # buffers, so the reply-lifetime and caller-buffer tests run here too.
  # Rebuild inserts its pulled image below the destination's newest epoch
  # and the destination adopts slices of the source's stored buffers, which
  # the evtree and payload audits check, so the Rebuild suite runs here too.
  # Aggregation folds the object, dkey and akey punch logs (VosPunch).
  echo "=== [agg] configure + build ==="
  cmake -B build-ci-agg -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAOSIM_SANITIZE="address;undefined" -DDAOSIM_AUDIT=ON
  cmake --build build-ci-agg -j "$JOBS" \
    --target evtree_test vos_test agg_test dtx_test engine_test client_test rebuild_test
  echo "=== [agg] ctest ==="
  ctest --test-dir build-ci-agg --output-on-failure -j "$JOBS" \
    -R 'Evtree|VosPunch|Rebuild\.|AggService|AggDeterminism|AggFloors|AggFault|DtxVos\.PreparedEntriesPinAggregation|DtxCluster\.SnapshotPinsAggregationUntilDestroyed|Engine\.(FetchReplyOutlivesOverwritePunchAndAggregate|SingleValueFetchOutlivesAggregationDuringMediaWait)|Cluster\.ArrayWriteDoesNotAliasCallerBuffer'
  stage_end
fi

if [[ $STAGE == bench-smoke ]]; then
  stage_begin bench-smoke
  # Perf-trajectory smoke: the batching/EQ ablation at tiny scale. Guards the
  # bench binary, the machine-readable JSON output, and the invariant that
  # batched coalescing never loses to the legacy per-extent path.
  echo "=== [bench-smoke] configure + build ==="
  cmake -B build-ci-bench -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-ci-bench -j "$JOBS" \
    --target ablation_xfersize ablation_dtx ablation_membership ablation_overwrite \
    fig1_fileperprocess fig2_sharedfile
  echo "=== [bench-smoke] run ==="
  # Both ablation_overwrite sizes write BENCH_ablation_overwrite.json: keep the
  # smoke run's rows apart for the invariant checks below.
  (cd build-ci-bench/bench && ./ablation_xfersize --smoke && ./ablation_dtx --smoke &&
   ./ablation_membership --smoke && ./ablation_overwrite --smoke &&
   mv BENCH_ablation_overwrite.json BENCH_ablation_overwrite_smoke.json)
  # The paper figures and the overwrite endurance sweep at full size (a few
  # seconds each). The simulation is deterministic, so every simulated column
  # of these runs and of the xfersize, dtx and membership smoke runs is gated
  # exactly; wall_s is host time and is not gated.
  echo "=== [bench-smoke] smoke + fig1/fig2/overwrite rows match bench/baselines ==="
  (cd build-ci-bench/bench && ./fig1_fileperprocess && ./fig2_sharedfile &&
   ./ablation_overwrite)
  python3 - <<'EOF'
import json
for bench, baseline in (("ablation_xfersize", "ablation_xfersize_smoke"),
                        ("ablation_dtx", "ablation_dtx_smoke"),
                        ("ablation_membership", "ablation_membership_smoke"),
                        ("fig1_fileperprocess", "fig1_fileperprocess"),
                        ("fig2_sharedfile", "fig2_sharedfile"),
                        ("ablation_overwrite", "ablation_overwrite")):
    got = json.load(open(f"build-ci-bench/bench/BENCH_{bench}.json"))["rows"]
    want = json.load(open(f"bench/baselines/BENCH_{baseline}.json"))["rows"]
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_s"} for r in rows]
    assert len(got) == len(want), f"{bench}: {len(got)} rows, baseline has {len(want)}"
    diffs = [(w, g) for w, g in zip(strip(want), strip(got)) if w != g]
    for w, g in diffs:
        print(f"{bench}: baseline {w}\n{bench}: got      {g}")
    assert not diffs, f"{bench}: {len(diffs)} rows differ from bench/baselines"
    print(f"bench-smoke OK: {bench} matches {baseline} ({len(got)} rows)")
EOF
  echo "=== [bench-smoke] JSON validates ==="
  python3 - <<'EOF'
import json
bench = json.load(open("build-ci-bench/bench/BENCH_ablation_xfersize.json"))
rows = bench["rows"]
assert rows, "perf-trajectory JSON has no rows"
assert all(r["write_gibs"] > 0 and r["read_gibs"] > 0 for r in rows), "zero bandwidth row"
assert all(r["events"] > 0 for r in rows), "zero-event job"
by = {(r["series"], r["x"]): r["write_gibs"] for r in rows}
small = min(r["x"] for r in rows)
assert by[("hard/batch16", small)] >= by[("hard/batch1", small)] * 0.98, \
    "batched hard-mode write lost to the unbatched path at the smallest transfer"
print(f"bench-smoke OK: {len(rows)} rows")

# ablation_dtx column mapping (see bench/ablation_dtx.cpp): x = hot-key-space
# size, read_gibs = conflict rate in [0,1), write_gibs = commits/s,
# read_p99_us = commit p50 us, write_p99_us = commit p99 us.
dtx = json.load(open("build-ci-bench/bench/BENCH_ablation_dtx.json"))
rows = dtx["rows"]
assert rows, "DTX trajectory JSON has no rows"
assert all(r["write_gibs"] > 0 for r in rows), "zero commit throughput row"
assert all(0.0 <= r["read_gibs"] < 1.0 for r in rows), "conflict rate out of range"
assert all(r["write_p99_us"] >= r["read_p99_us"] > 0 for r in rows), "p99 below p50"
assert all(r["events"] > 0 for r in rows), "zero-event sweep point"
print(f"bench-smoke OK: {len(rows)} DTX rows")

# ablation_overwrite column mapping (see bench/ablation_overwrite.cpp):
# x = overwrite pass, read_p99_us = evtree probes per read op (deterministic),
# events = the pass's total extent-probe delta. The flat-cost acceptance bar:
# with aggregation on the final pass costs <= 1.2x the first; off, it grows.
ow = json.load(open("build-ci-bench/bench/BENCH_ablation_overwrite_smoke.json"))
rows = ow["rows"]
assert rows, "overwrite trajectory JSON has no rows"
on = sorted((r for r in rows if r["series"] == "agg_on"), key=lambda r: r["x"])
off = sorted((r for r in rows if r["series"] == "agg_off"), key=lambda r: r["x"])
assert on and off, "missing agg_on/agg_off series"
assert all(r["read_p99_us"] > 0 and r["events"] > 0 for r in rows), "zero-probe pass"
assert on[-1]["read_p99_us"] <= 1.2 * on[0]["read_p99_us"], \
    f"agg-on read cost not flat: {on[0]['read_p99_us']} -> {on[-1]['read_p99_us']}"
assert off[-1]["read_p99_us"] > off[0]["read_p99_us"], \
    f"agg-off read cost did not grow: {off[0]['read_p99_us']} -> {off[-1]['read_p99_us']}"
print(f"bench-smoke OK: overwrite flat-cost "
      f"{on[0]['read_p99_us']:.2f} -> {on[-1]['read_p99_us']:.2f} probes/op (agg on), "
      f"{off[0]['read_p99_us']:.2f} -> {off[-1]['read_p99_us']:.2f} (off)")
EOF
  stage_end
fi

if [[ $STAGE == analyze || $STAGE == all ]]; then
  stage_begin analyze
  # AST-level suspension-safety pass: parses the real src/ TUs with libclang.
  # Standalone (CI) the toolchain is mandatory; under `all` the analyzer's own
  # graceful-skip path keeps hosts without libclang green.
  require=()
  [[ $STAGE == analyze ]] && require=(--require)
  echo "=== [analyze] configure (compile_commands.json) ==="
  cmake -B build-ci-analyze -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "=== [analyze] rule self-test on seeded fixtures ==="
  python3 tools/analyze/daosim_check.py --self-test ${require[@]+"${require[@]}"}
  echo "=== [analyze] src/ tree scan ==="
  python3 tools/analyze/daosim_check.py --root . --build build-ci-analyze \
    ${require[@]+"${require[@]}"}
  stage_end
fi

echo "=== CI ($STAGE) passed ==="
