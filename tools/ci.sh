#!/usr/bin/env bash
# CI entry point: the checks a change must pass before merging.
#
#   tools/ci.sh            # full run: Release tier-1 + TSan + ASan slices
#                          # + fault-injection suites + accelerator perf smoke
#   tools/ci.sh release    # just the Release build + full ctest
#   tools/ci.sh tsan       # just the ThreadSanitizer concurrency slice
#   tools/ci.sh asan       # just the AddressSanitizer slice
#   tools/ci.sh faultcheck # failpoints compiled in + ASan: crash
#                          # consistency, differential, error propagation
#   tools/ci.sh perfsmoke  # ETI-accelerator on/off output parity + metrics
#                          # + no query.slow log lines from the CLI
#   tools/ci.sh obscheck   # observability end-to-end: statusz/tracez JSON
#                          # shapes, slow-query capture via an injected
#                          # sleep, and the tracing-overhead budget
#   tools/ci.sh buildcheck # parallel ETI build determinism: 1-thread vs
#                          # 4-thread builds must be byte-identical but
#                          # for the random db_id
#   tools/ci.sh lookupcheck # SIMD vs scalar decode (DESIGN.md 5i): a
#                          # -DFM_SIMD=OFF build passing tier-1, and its
#                          # match output byte-identical to the default
#                          # build's
#   tools/ci.sh walcheck   # durability (DESIGN.md 5j): kill-loop at every
#                          # WAL/pager failpoint vs the acknowledged-op
#                          # oracle, log-format + group-commit unit suite,
#                          # online-rebuild swap under load, and a
#                          # bench_wal wal.* metrics archive
#
# Build trees live under build-ci-* so they never collide with a
# developer's ./build. JOBS defaults to the machine's core count.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

# The concurrency-sensitive test slice: everything that exercises the
# shared-read latching model (DESIGN.md 5c) plus the server itself, plus
# the fault suites (sanitizer builds compile failpoints in, and injected
# errors are where cleanup paths race). Randomized fault suites honor
# FM_TEST_SEED, pinned below so sanitizer runs are reproducible.
SANITIZER_TESTS='ConcurrentMatchTest|BufferPoolConcurrencyTest|ServerTest|IntrospectionTest|TraceConcurrencyTest|MetricsRegistryTest|BTreeStressTest|HeapFileStressTest|FileBackedPipelineTest|BatchCleanerTest|EtiAccelConcurrencyTest|TupleCacheTest|FailpointTest|DifferentialMaintenanceTest|ErrorPropagationTest|BufferPoolPressureTest|ExternalSortTest|EtiBuilderParallelTest|SimdVarintTest|TornPostingsTest'

# The full fault-injection surface: the crash-consistency sweep over every
# canonical failpoint plus the randomized differential harness.
FAULT_TESTS='FailpointTest|CrashConsistencyTest|DifferentialMaintenanceTest|ErrorPropagationTest|BufferPoolPressureTest|EtiInvariantsTest|ServerStartupTest|BuildFaultTest|TornPostingsTest|TornPostingsFaultTest'

run_release() {
  echo "=== [ci] Release build + full test suite ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-ci-release -j "$JOBS"
  ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"
}

run_sanitizer() {  # $1 = thread|address  $2 = build dir
  echo "=== [ci] ${1}-sanitizer build + concurrency slice ==="
  cmake -B "$2" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFM_SANITIZE="$1" > /dev/null
  # Only the test targets the slice needs: sanitizer builds are slow.
  cmake --build "$2" -j "$JOBS" --target \
        concurrent_match_test buffer_pool_concurrency_test server_test \
        introspection_test trace_concurrency_test \
        metrics_registry_test storage_stress_test batch_cleaner_test \
        eti_accel_concurrency_test tuple_cache_test failpoint_test \
        differential_maintenance_test error_propagation_test \
        buffer_pool_pressure_test external_sort_test \
        eti_builder_parallel_test simd_varint_test torn_postings_test
  FM_TEST_SEED="${FM_TEST_SEED:-101}" \
    ctest --test-dir "$2" --output-on-failure -j "$JOBS" \
        -R "$SANITIZER_TESTS"
}

# Failpoints compiled in + AddressSanitizer: the crash-consistency sweep
# (kill the stack at every canonical failpoint, reopen, audit), the
# randomized differential harness (all default seeds), error propagation,
# and the server startup-failure contract.
run_faultcheck() {
  echo "=== [ci] fault injection: failpoints + ASan ==="
  cmake -B build-ci-fault -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFM_FAILPOINTS=ON -DFM_SANITIZE=address > /dev/null
  cmake --build build-ci-fault -j "$JOBS" --target \
        failpoint_test crash_consistency_test \
        differential_maintenance_test error_propagation_test \
        buffer_pool_pressure_test eti_invariants_test server_startup_test \
        build_fault_test torn_postings_test
  ctest --test-dir build-ci-fault --output-on-failure -j "$JOBS" \
        -R "$FAULT_TESTS"
}

# The accelerator must never change answers, only latency: run the same
# match workload with the read accelerator + tuple cache on and off, and
# require byte-identical output CSVs. Both bench_query_time runs archive
# their metrics JSON under bench_results/ for before/after comparison.
run_perfsmoke() {
  echo "=== [ci] perf smoke: accelerator on/off parity + metrics ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-ci-release -j "$JOBS" --target \
        fuzzymatch_cli bench_query_time
  local cli=build-ci-release/tools/fuzzymatch_cli
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$cli" gen --out "$tmp/ref.csv" --rows 2000 --seed 42
  "$cli" corrupt --ref "$tmp/ref.csv" --out "$tmp/dirty.csv" --inputs 200
  "$cli" match --ref "$tmp/ref.csv" --input "$tmp/dirty.csv" \
        --out "$tmp/out.accel.csv" --tokens \
        --accel-budget-mb 64 --tuple-cache-mb 32 2> "$tmp/match.err" ||
    { cat "$tmp/match.err" >&2; exit 1; }
  # The batch tool has no tracez reader, so it logs no slow-query lines.
  if grep -q 'query\.slow' "$tmp/match.err"; then
    echo "[ci] fuzzymatch_cli match logged query.slow lines:" >&2
    cat "$tmp/match.err" >&2
    exit 1
  fi
  "$cli" match --ref "$tmp/ref.csv" --input "$tmp/dirty.csv" \
        --out "$tmp/out.plain.csv" --tokens \
        --accel-budget-mb 0 --tuple-cache-mb 0
  cmp "$tmp/out.accel.csv" "$tmp/out.plain.csv"
  echo "[ci] match output byte-identical with accelerator on and off"

  mkdir -p bench_results
  FM_REF_SIZE=2000 FM_NUM_INPUTS=200 FM_METRICS_DIR=bench_results \
    FM_ACCEL_BUDGET_MB=0 FM_TUPLE_CACHE_MB=0 \
    build-ci-release/bench/bench_query_time
  mv bench_results/bench_query_time.metrics.json \
     bench_results/bench_query_time.noaccel.metrics.json
  FM_REF_SIZE=2000 FM_NUM_INPUTS=200 FM_METRICS_DIR=bench_results \
    FM_ACCEL_BUDGET_MB=64 FM_TUPLE_CACHE_MB=32 \
    build-ci-release/bench/bench_query_time
  mv bench_results/bench_query_time.metrics.json \
     bench_results/bench_query_time.accel.metrics.json
  echo "[ci] metrics archived: bench_results/bench_query_time.{noaccel,accel}.metrics.json"
}

# Observability end to end against the real binaries: boot the server
# with a 60ms sleep injected into the match path, drive mixed traffic,
# and require that the introspection surfaces report it — statusz and
# tracez must be valid JSON with their documented keys, the flight
# recorder must have captured the injected slow queries with complete
# span trees, and the Prometheus scrape must carry the process gauges.
# Then gate the cost of all of it: bench_query_time's A/B mode fails the
# stage when the span-tree + recorder overhead exceeds the budget, and a
# small bench_serving run archives the flight-recorder snapshot of its
# widest served sweep under bench_results/ for post-hoc inspection.
run_obscheck() {
  echo "=== [ci] obscheck: tracing, flight recorder, introspection ==="
  cmake -B build-ci-obs -S . -DCMAKE_BUILD_TYPE=Release \
        -DFM_FAILPOINTS=ON > /dev/null
  cmake --build build-ci-obs -j "$JOBS" --target \
        fuzzymatch_server fuzzymatch_cli fuzzymatch_loadgen \
        bench_query_time bench_serving
  local cli=build-ci-obs/tools/fuzzymatch_cli
  local tmp server_pid=""
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand $tmp now; $server_pid at fire time
  trap "[ -n \"\$server_pid\" ] && kill \"\$server_pid\" 2>/dev/null; \
        rm -rf '$tmp'" RETURN
  "$cli" gen --out "$tmp/ref.csv" --rows 2000 --seed 42
  "$cli" corrupt --ref "$tmp/ref.csv" --out "$tmp/dirty.csv" --inputs 100
  local port="${FM_OBSCHECK_PORT:-18771}"
  FM_FAILPOINTS='match.query_delay=sleep:60' \
    build-ci-obs/tools/fuzzymatch_server --ref "$tmp/ref.csv" \
      --port "$port" --workers 2 --slow-trace-ms 50 \
      > "$tmp/server.log" 2>&1 &
  server_pid=$!
  local up=0
  for _ in $(seq 1 150); do
    if grep -q "serving on" "$tmp/server.log"; then up=1; break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.2
  done
  if [ "$up" != 1 ]; then
    echo "[ci] server failed to start:" >&2
    cat "$tmp/server.log" >&2
    exit 1
  fi

  build-ci-obs/tools/fuzzymatch_loadgen --port "$port" --clients 2 \
      --requests 10 --input "$tmp/dirty.csv" --op mixed \
      --metrics-out "$tmp/loadgen.json"

  # Scrape all three introspection surfaces. statusz/tracez are one JSON
  # line each; the Prometheus body ends at the "# EOF" marker.
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'statusz\n' >&3 && IFS= read -r line <&3 && \
      printf '%s\n' "$line" > "$tmp/statusz.json"
  exec 3<&- 3>&-
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'metrics\n' >&3
  : > "$tmp/metrics.prom"
  while IFS= read -r line <&3; do
    [ "$line" = "# EOF" ] && break
    printf '%s\n' "$line" >> "$tmp/metrics.prom"
  done
  exec 3<&- 3>&-
  "$cli" trace --port "$port" --json > "$tmp/tracez.json"
  "$cli" trace --port "$port" --limit 4 > "$tmp/tracez.txt"
  grep -q "server.handle_query" "$tmp/tracez.txt"

  kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
  server_pid=""

  python3 - "$tmp" <<'PYEOF'
import json, sys
tmp = sys.argv[1]

status = json.load(open(tmp + "/statusz.json"))
assert status["ok"] is True and status["op"] == "statusz", status
for key in ("uptime_seconds", "build", "tracing_enabled", "workers",
            "queue", "connections", "counters", "recorder", "process"):
    assert key in status, f"statusz missing {key}"
assert status["process"]["rss_bytes"] > 0
assert status["counters"]["responses"] >= 20
assert status["recorder"]["slow"] >= 1, status["recorder"]

tracez = json.load(open(tmp + "/tracez.json"))
assert tracez["ok"] is True, tracez
rec = tracez["recorder"]
assert rec["stats"]["recorded"] >= 20 and rec["stats"]["slow"] >= 1
traces = rec["traces"]
assert traces, "flight recorder retained no traces"
# Outliers sort first: the injected 60ms sleep must show up here.
first = traces[0]
assert first["duration_ms"] >= 50, first
spans = first["spans"]
assert spans and spans[0]["parent"] == -1
assert any(s["name"] == "match.find_matches" for s in spans), spans

load = json.load(open(tmp + "/loadgen.json"))
assert load["errors"] == 0 and load["shed"] == 0, load
for op in ("match", "clean"):
    assert load["ops"][op]["count"] == 10, load["ops"]
    assert load["ops"][op]["latency_ms"]["p50"] > 0

prom = open(tmp + "/metrics.prom").read()
for metric in ("fm_process_rss_bytes", "fm_process_open_fds",
               "fm_server_requests", "fm_span_match_find_matches_seconds"):
    assert metric in prom, f"prometheus scrape missing {metric}"
# statusz counters must be the registry's, not a second account: no
# match/clean traffic runs between the two scrapes, so they agree exactly.
samples = dict(line.split(" ", 1) for line in prom.splitlines()
               if line and not line.startswith("#"))
for key, metric in (("requests", "fm_server_requests"),
                    ("responses", "fm_server_responses"),
                    ("shed", "fm_server_shed_requests")):
    assert status["counters"][key] == float(samples[metric]), \
        (key, status["counters"][key], metric, samples.get(metric))
print("[ci] statusz/tracez/metrics/loadgen JSON shapes OK")
PYEOF

  # Tracing must stay cheap: A/B the traced vs untraced query path and
  # fail the stage when the median overhead blows the budget. Small-scale
  # CI runs are noisy, so the gate is looser than the ~1% measured at
  # paper scale (DESIGN.md 5g).
  mkdir -p bench_results
  FM_REF_SIZE=5000 FM_NUM_INPUTS=400 FM_METRICS_DIR=bench_results \
    FM_TRACE_OVERHEAD=1 FM_TRACE_BUDGET_PCT="${FM_TRACE_BUDGET_PCT:-10}" \
    build-ci-obs/bench/bench_query_time

  # Archive a live flight-recorder snapshot from the serving bench.
  FM_REF_SIZE=2000 FM_NUM_INPUTS=150 FM_MAX_WORKERS=2 \
    FM_METRICS_DIR=bench_results \
    build-ci-obs/bench/bench_serving
  test -s bench_results/bench_serving.tracez.json
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      bench_results/bench_serving.tracez.json
  echo "[ci] flight recorder snapshot archived: bench_results/bench_serving.tracez.json"
}

# The parallel ETI build must be a pure optimization: building the same
# reference relation with 1 and 4 threads (spilling in both) has to leave
# byte-identical database files — ETI relation, clustered index, catalog
# and all. cmp(1) over the whole page file enforces it exactly.
run_buildcheck() {
  echo "=== [ci] buildcheck: parallel ETI build determinism ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-ci-release -j "$JOBS" --target fuzzymatch_cli
  local cli=build-ci-release/tools/fuzzymatch_cli
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$cli" gen --out "$tmp/ref.csv" --rows 4000 --seed 42
  "$cli" build --ref "$tmp/ref.csv" --db "$tmp/serial.fmdb" --tokens \
        --build-threads 1 --sort-budget-kb 256
  "$cli" build --ref "$tmp/ref.csv" --db "$tmp/parallel.fmdb" --tokens \
        --build-threads 4 --sort-budget-kb 256
  # File offsets 24..31 hold the catalog's db_id, minted at random for
  # every new store (the WAL's identity guard), so two builds never agree
  # there. Every other byte must be equal.
  cmp -n 24 "$tmp/serial.fmdb" "$tmp/parallel.fmdb"
  cmp -i 32 "$tmp/serial.fmdb" "$tmp/parallel.fmdb"
  echo "[ci] ETI build byte-identical with 1 and 4 threads (db_id aside)"
  local leftovers
  leftovers="$(find "$tmp" \( -name 'fm_sort_run_*' -o -name 'fm_spill_probe_*' \))"
  if [ -n "$leftovers" ]; then
    echo "[ci] spill files leaked: $leftovers" >&2
    exit 1
  fi
}

# The durability contract (DESIGN.md 5j), enforced end to end: the
# kill-loop arms every WAL and pager failpoint in turn, runs the durable
# maintenance workload until the simulated power loss fires, reopens, and
# audits the recovered state against the acknowledged-op oracle — zero
# acknowledged-op loss, recovered state exactly the committed prefix
# (torn-write runs additionally allow the ambiguous-commit outcome, but
# only atomically). The same build carries the WAL format/group-commit
# unit suite and the online-rebuild swap-under-load suite, all under
# AddressSanitizer so recovery and rollback paths are leak/UB-checked.
# A Release bench_wal run then archives the wal.* counter family plus
# fsync-mode throughput and replay-speed gauges under bench_results/.
run_walcheck() {
  echo "=== [ci] walcheck: WAL kill-loop + recovery oracle + metrics ==="
  cmake -B build-ci-fault -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFM_FAILPOINTS=ON -DFM_SANITIZE=address > /dev/null
  cmake --build build-ci-fault -j "$JOBS" --target \
        wal_test wal_recovery_test eti_rebuild_test
  ctest --test-dir build-ci-fault --output-on-failure -j "$JOBS" \
        -R 'WalTest|WalRecoveryTest|EtiRebuildTest'
  echo "[ci] acked ops survived every WAL/pager failpoint kill"

  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-ci-release -j "$JOBS" --target bench_wal
  mkdir -p bench_results
  FM_REF_SIZE=2000 FM_MAINT_OPS=200 FM_METRICS_DIR=bench_results \
    build-ci-release/bench/bench_wal
  python3 - bench_results/bench_wal.metrics.json <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
names = set(metrics["counters"]) | set(metrics["gauges"]) \
        | set(metrics["histograms"])
for want in ("wal.commits", "wal.fsyncs", "wal.bytes_written",
             "wal.replay_pages", "wal.truncates",
             "bench_wal.maint_ops_per_s_always",
             "bench_wal.maint_ops_per_s_group",
             "bench_wal.maint_ops_per_s_never",
             "bench_wal.replay_seconds"):
    assert want in names, f"wal metrics archive missing {want}"
print("[ci] wal metrics archived: bench_results/bench_wal.metrics.json")
PYEOF
}

# SIMD posting decode (DESIGN.md 5i) is a pure speed choice: the kernel
# follows the CPU, and the scalar kernel must give the same answers. A
# -DFM_SIMD=OFF build (only the scalar kernel, the non-x86 configuration)
# must pass tier-1 on its own, and its CLI match output must be
# byte-identical to the default Release build's.
run_lookupcheck() {
  echo "=== [ci] lookupcheck: SIMD vs scalar decode parity + FM_SIMD=OFF ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-ci-release -j "$JOBS" --target fuzzymatch_cli
  cmake -B build-ci-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
        -DFM_SIMD=OFF > /dev/null
  cmake --build build-ci-nosimd -j "$JOBS"
  ctest --test-dir build-ci-nosimd --output-on-failure -j "$JOBS"
  echo "[ci] -DFM_SIMD=OFF build passed tier-1"

  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  local cli=build-ci-release/tools/fuzzymatch_cli
  "$cli" gen --out "$tmp/ref.csv" --rows 2000 --seed 42
  "$cli" corrupt --ref "$tmp/ref.csv" --out "$tmp/dirty.csv" --inputs 200
  for build in release nosimd; do
    "build-ci-$build/tools/fuzzymatch_cli" match --ref "$tmp/ref.csv" \
          --input "$tmp/dirty.csv" --out "$tmp/out.$build.csv" --tokens
  done
  cmp "$tmp/out.release.csv" "$tmp/out.nosimd.csv"
  echo "[ci] match output byte-identical with SIMD and scalar decode"
}

case "$STAGE" in
  release)    run_release ;;
  tsan)       run_sanitizer thread build-ci-tsan ;;
  asan)       run_sanitizer address build-ci-asan ;;
  faultcheck) run_faultcheck ;;
  perfsmoke)  run_perfsmoke ;;
  obscheck)   run_obscheck ;;
  buildcheck) run_buildcheck ;;
  lookupcheck) run_lookupcheck ;;
  walcheck)   run_walcheck ;;
  all)
    run_release
    run_sanitizer thread build-ci-tsan
    run_sanitizer address build-ci-asan
    run_faultcheck
    run_perfsmoke
    run_obscheck
    run_buildcheck
    run_lookupcheck
    run_walcheck
    ;;
  *)
    echo "usage: tools/ci.sh [release|tsan|asan|faultcheck|perfsmoke|obscheck|buildcheck|lookupcheck|walcheck|all]" >&2
    exit 2
    ;;
esac

echo "=== [ci] OK (${STAGE}) ==="
