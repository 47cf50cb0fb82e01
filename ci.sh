#!/usr/bin/env bash
# Tier-1 verification across six build legs: plain, ASan/UBSan
# (-DIPDB_SANITIZE="address;undefined"; a UB finding aborts its test, so
# the leg fails on it), fault injection under ASan
# (-DIPDB_FAULT_INJECTION=ON — every registered fault site is armed in
# turn and must unwind as a clean Status), TSan over the concurrency
# tests, an optimized Release build (-O2 -DNDEBUG, -Werror) so the
# arithmetic kernels are exercised the way benchmarks and users run them
# and no warning lands, plus a build (no run) of the perfbench program
# with its own flags, and a Release build with
# -DIPDB_OBSERVABILITY=OFF so the compiled-out macro expansions stay
# buildable. Every leg includes the knowledge-
# compilation tests (kc_test, kc_property_test); the Release legs
# additionally gate one-shot compile + evaluate against closed forms
# (1e-9), the lifted safe-plan rung (1e-9 parity with the circuit rung,
# pqe::GroundCompileEvaluate, plus a >= 10x speedup on the chain query at
# 10^4 facts), the columnar
# fact store (<= 48 bytes/fact at 10^7 facts as a bare store and as a
# registered TiPdb instance, >= 5x grounding speedup over the recorded
# object-per-tuple baseline in BENCH_storage.json, incremental re-query
# >= 10x faster than cold), grounding that scales linearly on the path
# query (BM_GroundPathQuery/32 within 16x of /4), crash-safe durability (the fault leg drives
# durability_crash through injected dur.* failures, a real kill -9, and
# a torn WAL tail, gating bit-identical recovery; the Release leg gates
# the WAL append overhead at <= 15% of a bare mutation), the query
# service under closed-loop load (serve_bench: p99
# latency budget at 16 clients, bounded shed rates, zero cross-tenant
# cache-accounting drift, prepared-query hits on repeated texts, zero
# labeled-metric drift, SLO burn-rate
# breaching exactly on the overload row, and the daemon QUERY -> TRACE
# -> STATS round trip), per-request span-tree connectivity on the serve
# trace artifact (>= 95% of QUERYs reassemble into one connected tree
# rooted at serve.request), the observability overhead (instrumented
# within 5% of compiled-out), and the trace exporter (span coverage +
# counter consistency on a real trace artifact).
# Usage: ./ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc 2>/dev/null || echo 2)"

# The kc tests ride along in every ctest invocation below; fail loudly
# if they ever drop out of the registered test list.
require_kc_tests() {
  local build_dir="$1" listing
  listing="$(ctest --test-dir "${build_dir}" -N)"
  for t in kc_test kc_property_test; do
    if ! grep -q "${t}" <<<"${listing}"; then
      echo "ci.sh: ${t} missing from ${build_dir} test list" >&2
      exit 1
    fi
  done
}

echo "=== plain build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j"${jobs}"
require_kc_tests build
ctest --test-dir build --output-on-failure -j"${jobs}" "$@"

echo "=== sanitized build + tests (address;undefined) ==="
cmake -B build-sanitize -S . -DIPDB_SANITIZE="address;undefined" >/dev/null
cmake --build build-sanitize -j"${jobs}"
require_kc_tests build-sanitize
ctest --test-dir build-sanitize --output-on-failure -j"${jobs}" "$@"

echo "=== fault-injection build + tests (ASan, IPDB_FAULT_INJECTION=ON) ==="
# Error paths are tested on purpose: with fault points compiled in,
# fault_test arms every registered site in turn and proves each injected
# failure unwinds as a clean Status — no abort, no leak (ASan) — and
# FaultFiringTest.EverySiteUnwindsCleanly fails if even one registered
# site is never reached by the representative workload, so a new
# IPDB_FAULT_POINT cannot land without coverage. The rest of the suite
# rides along to show armed-but-unplanned sites stay inert.
cmake -B build-fault -S . -DIPDB_SANITIZE="address" \
  -DIPDB_FAULT_INJECTION=ON >/dev/null
cmake --build build-fault -j"${jobs}"
require_kc_tests build-fault
ctest --test-dir build-fault --output-on-failure -j"${jobs}" "$@"

echo "=== crash-recovery gate (ASan + fault build, durability_crash) ==="
# Drives the durability_crash helper through injected I/O failures and a
# real process death, gating that recovery reproduces bit-identical
# state: the grounding FINGERPRINT, the exact rational MARGINAL, and the
# FACTS count must match the pre-crash baseline line for line.
crash_bin="./build-fault/tests/durability_crash"
crash_dir="$(mktemp -d)"
trap 'rm -rf "${crash_dir}"' EXIT

crash_state() {  # mode dir -> the comparable state lines
  "${crash_bin}" "$1" "$2" | grep -E '^(FINGERPRINT|MARGINAL|FACTS) '
}
crash_must_fail() {  # site mode dir
  if IPDB_FAULTS="$1" "${crash_bin}" "$2" "$3" >/dev/null 2>&1; then
    echo "ci.sh: ${2} with ${1} armed unexpectedly succeeded" >&2
    exit 1
  fi
}
crash_check() {  # label expected actual
  if [[ "$2" != "$3" ]]; then
    echo "ci.sh: crash-recovery state diverged (${1})" >&2
    diff <(printf '%s\n' "$2") <(printf '%s\n' "$3") >&2 || true
    exit 1
  fi
  echo "  ${1}: recovered state bit-identical"
}

# (a) WAL-append fault: the mutation batch fails up front (log-then-
# apply rolls the buffered record back) and recovery still shows the
# freshly prepared instance.
d="${crash_dir}/append"; mkdir -p "${d}"
seed_state="$(crash_state prepare "${d}")"
crash_must_fail dur.wal.append:1 mutate "${d}"
crash_check "dur.wal.append" "${seed_state}" "$(crash_state recover "${d}")"

# (b) snapshot-write and rename faults: a failed checkpoint must leave
# the journaled state fully recoverable (old snapshot + intact WAL).
d="${crash_dir}/checkpoint"; mkdir -p "${d}"
crash_state prepare "${d}" >/dev/null
mutated_state="$(crash_state mutate "${d}")"
crash_must_fail dur.snapshot.write:1 checkpoint "${d}"
crash_check "dur.snapshot.write" "${mutated_state}" \
  "$(crash_state recover "${d}")"
crash_must_fail dur.rename:1 checkpoint "${d}"
crash_check "dur.rename" "${mutated_state}" "$(crash_state recover "${d}")"

# (c) replay fault: recovery fails loudly once, then succeeds unarmed
# on the very same files.
crash_must_fail dur.wal.replay:1 recover "${d}"
crash_check "dur.wal.replay" "${mutated_state}" \
  "$(crash_state recover "${d}")"

# (d) kill -9 mid-batch: the helper commits batch A, Flush()es it to
# the page cache, prints its state, buffers batch B in user space, and
# raises SIGKILL. Batch A must survive, batch B must vanish — recovery
# equals exactly what the victim printed before dying.
d="${crash_dir}/kill9"; mkdir -p "${d}"
crash_state prepare "${d}" >/dev/null
set +e
kill9_out="$("${crash_bin}" kill9 "${d}")"
kill9_rc=$?
set -e
if [[ ${kill9_rc} -ne 137 ]]; then
  echo "ci.sh: kill9 mode should die by SIGKILL (137), got ${kill9_rc}" >&2
  exit 1
fi
kill9_state="$(grep -E '^(FINGERPRINT|MARGINAL|FACTS) ' <<<"${kill9_out}")"
crash_check "kill -9" "${kill9_state}" "$(crash_state recover "${d}")"

# (e) torn tail: garbage appended to the WAL is truncated on recovery
# (TRUNCATED 1), never fatal, and the committed state is untouched.
d="${crash_dir}/torn"; mkdir -p "${d}"
crash_state prepare "${d}" >/dev/null
mutated_state="$(crash_state mutate "${d}")"
"${crash_bin}" garble "${d}" >/dev/null
torn_out="$("${crash_bin}" recover "${d}")"
if ! grep -q '^TRUNCATED 1$' <<<"${torn_out}"; then
  echo "ci.sh: recovery did not report the torn tail" >&2
  exit 1
fi
crash_check "torn WAL tail" "${mutated_state}" \
  "$(grep -E '^(FINGERPRINT|MARGINAL|FACTS) ' <<<"${torn_out}")"

echo "=== thread-sanitized build + concurrency tests ==="
# TSan over the code that shares state across threads: the pool's
# drain-on-error batches, budget/cancellation polling from workers, the
# sharded Monte Carlo engines, the metrics registry, the lifted rung's
# counter/cancellation traffic (safe_plan_test, lifted_parity_test), the
# columnar store's concurrent readers and circuit-rung queries
# (storage_test), and the query service (server_test: the 16-thread
# concurrent-serving parity run, shared PreparedQuery handles racing the
# refresh machinery, admission + shutdown drain).
cmake -B build-tsan -S . -DIPDB_SANITIZE="thread" >/dev/null
cmake --build build-tsan -j"${jobs}" --target \
  parallel_test budget_test obs_test pqe_test fault_test \
  safe_plan_test lifted_parity_test storage_test server_test
ctest --test-dir build-tsan --output-on-failure -j"${jobs}" \
  -R '^(parallel_test|budget_test|obs_test|pqe_test|fault_test|safe_plan_test|lifted_parity_test|storage_test|server_test)$'

echo "=== release build + tests (-O2 -DNDEBUG, warnings are errors) ==="
# -Werror on this leg keeps the whole tree (library, tests, benches,
# examples) warning-free under -Wall -Wextra.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-release -j"${jobs}"
require_kc_tests build-release
ctest --test-dir build-release --output-on-failure -j"${jobs}" "$@"

echo "=== perfbench build (Release, run.py's flags, not run) ==="
# perfbench/ builds the library from src/ and links its own program
# against LiftedPlan::Compile, GroundSentence and PreparedQuery; building
# it here shows a break in those entry points before a benchmark run
# does. The flags are the ones perfbench/run.py configures with.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
cmake --build build-perfbench -j"${jobs}"

echo "=== release build + tests, observability compiled out ==="
cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" \
  -DIPDB_OBSERVABILITY=OFF >/dev/null
cmake --build build-obs-off -j"${jobs}"
require_kc_tests build-obs-off
ctest --test-dir build-obs-off --output-on-failure -j"${jobs}" "$@"

echo "=== kc_bench single-shot parity gate (Release) ==="
# One d-DNNF compile + evaluation (the one-shot ComputeProbability
# pipeline) must match a closed form to 1e-9 on every single-shot row:
# the chain query via a two-state DP over the path's edges, the
# bipartite existence query as 1 - prod(1 - p). kc_bench computes
# |kc - closed form| once per row in setup, as its parity_abs_err
# counter; ns_per_op is reported alongside.
parity_json="build-release/BENCH_ci_parity.json"
rm -f "${parity_json}"
./build-release/bench/kc_bench --bench_json_out="${parity_json}" \
  --benchmark_filter='SingleShot' --benchmark_min_time=0.2 >/dev/null
python3 - "${parity_json}" <<'EOF'
import json, sys

rows = {r["op"]: r for r in json.load(open(sys.argv[1]))["results"]}
expected = [f"BM_KcSingleShotChain/{n}" for n in (8, 16, 32)] + \
           [f"BM_KcSingleShotBipartite/{n}" for n in (4, 6, 8)]
failed = False
for op in expected:
    assert op in rows, f"row {op} missing from {sys.argv[1]}"
    err = rows[op]["counters"]["parity_abs_err"]
    verdict = "ok" if err <= 1e-9 else "FAIL (> 1e-9)"
    print(f"  {op:30s} parity_abs_err={err:.3g}  "
          f"{rows[op]['ns_per_op']:9.0f} ns   {verdict}")
    failed |= err > 1e-9
sys.exit(1 if failed else 0)
EOF

echo "=== lifted-rung parity + speedup gate (Release) ==="
# The lifted safe-plan rung must (a) agree with the circuit rung
# (pqe::GroundCompileEvaluate, called directly) to 1e-9 on every row that
# carries a parity counter and (b) beat that ground-and-compile pipeline
# by >= 10x on the chain query at 10^4 facts. The star rows are reported for the crossover table in
# EXPERIMENTS.md but not gated (same engine, noisier setup).
lifted_json="build-release/BENCH_ci_lifted.json"
rm -f "${lifted_json}"
./build-release/bench/lifted_bench --bench_json_out="${lifted_json}" \
  --benchmark_min_time=0.2 >/dev/null
python3 - "${lifted_json}" <<'EOF'
import json, sys

rows = {r["op"]: r for r in json.load(open(sys.argv[1]))["results"]}
failed = False
for op, row in sorted(rows.items()):
    err = row.get("counters", {}).get("parity_abs_err")
    if err is None:
        continue
    verdict = "ok" if err <= 1e-9 else "FAIL (> 1e-9)"
    print(f"  {op:26s} parity_abs_err={err:.3g}   {verdict}")
    failed |= err > 1e-9
speedup = (rows["BM_CircuitChain/10000"]["ns_per_op"]
           / rows["BM_LiftedChain/10000"]["ns_per_op"])
star = (rows["BM_CircuitStar/1000"]["ns_per_op"]
        / rows["BM_LiftedStar/1000"]["ns_per_op"])
verdict = "ok" if speedup >= 10.0 else "FAIL (< 10x)"
print(f"  chain@10^4 lifted speedup: {speedup:5.1f}x   {verdict}")
print(f"  star@10^3  lifted speedup: {star:5.1f}x   (reported)")
failed |= speedup < 10.0
sys.exit(1 if failed else 0)
EOF

echo "=== columnar storage gates (Release) ==="
# Three claims from the storage layer, measured by storage_bench:
#  * a 10M-fact binary-relation TI fits in <= 48 bytes/fact, both as a
#    bare store (ApproxBytes of the dictionary-encoded columns) and as a
#    TiPdb instance (resident growth across Builder::Finish +
#    TiPdbD::FromStore: a TiPdb is a view that keeps nothing per fact
#    beside its store);
#  * grounding a 64-atom disjunction against 10^6 facts (dictionary
#    probes + binary search per atom) is >= 5x faster than the recorded
#    BM_GroundLegacy row in the repo-root BENCH_storage.json. That row
#    timed a grounder, since deleted, that materialized a std::map over
#    the whole instance per call, and comes from the last Release
#    storage_bench run that still had it. Both rows are in ns, as every
#    ns_per_op is;
#  * after UpdateProbability, a PreparedQuery re-answer (re-evaluate the
#    held circuit on its literals' marginals) is >= 10x faster than the
#    cold ground + compile + evaluate pipeline, on a query outside the
#    lifted class.
storage_json="build-release/BENCH_storage.json"
rm -f "${storage_json}"
(cd build-release && ./bench/storage_bench \
  --bench_json_out=BENCH_storage.json --benchmark_min_time=0.2 >/dev/null)
python3 - "${storage_json}" BENCH_storage.json <<'EOF'
import json, sys

rows = {r["op"]: r for r in json.load(open(sys.argv[1]))["results"]}
recorded = {r["op"]: r for r in json.load(open(sys.argv[2]))["results"]}
failed = False

bpf = rows["BM_ColumnarBuild/10000000"]["counters"]["bytes_per_fact"]
verdict = "ok" if bpf <= 48.0 else "FAIL (> 48)"
print(f"  bytes/fact at 10^7 facts:      {bpf:6.2f}     {verdict}")
failed |= bpf > 48.0

inst = rows["BM_InstanceBuild/10000000"]["counters"]["resident_bytes_per_fact"]
verdict = "ok" if inst <= 48.0 else "FAIL (> 48)"
print(f"  instance resident bytes/fact:  {inst:6.2f}     {verdict}")
failed |= inst > 48.0

ground = (recorded["BM_GroundLegacy"]["ns_per_op"]
          / rows["BM_GroundColumnar"]["ns_per_op"])
verdict = "ok" if ground >= 5.0 else "FAIL (< 5x)"
print(f"  grounding speedup vs recorded: {ground:6.1f}x    {verdict}")
failed |= ground < 5.0

requery = (rows["BM_ColdRequery/200"]["ns_per_op"]
           / rows["BM_IncrementalRequery/200"]["ns_per_op"])
verdict = "ok" if requery >= 10.0 else "FAIL (< 10x)"
print(f"  incremental re-query speedup:  {requery:6.1f}x    {verdict}")
failed |= requery < 10.0

sys.exit(1 if failed else 0)
EOF

echo "=== grounding scaling gate (Release, pqe_bench) ==="
# The grounder binds each quantified variable from the store's rows that
# can satisfy its body, so grounding the path query
# exists x y z. R(x, y) & R(y, z) over an n-fact chain does work linear
# in n: /32 should cost about 8x /4. A grounder that enumerates the whole
# domain at every quantifier is cubic (70.6x in the BENCH_pqe.json rows
# recorded before guard-driven grounding). Both rows come from one fresh
# run, so the ratio does not depend on the host.
ground_json="build-release/BENCH_ci_ground.json"
rm -f "${ground_json}"
./build-release/bench/pqe_bench --bench_json_out="${ground_json}" \
  --benchmark_filter='BM_GroundPathQuery/(4|32)$' \
  --benchmark_min_time=0.2 >/dev/null
python3 - "${ground_json}" <<'EOF'
import json, sys

rows = {r["op"]: r for r in json.load(open(sys.argv[1]))["results"]}
ratio = (rows["BM_GroundPathQuery/32"]["ns_per_op"]
         / rows["BM_GroundPathQuery/4"]["ns_per_op"])
verdict = "ok" if ratio <= 16.0 else "FAIL (> 16x)"
print(f"  BM_GroundPathQuery/32 / BM_GroundPathQuery/4 = {ratio:5.1f}x "
      f"(linear: ~8x)   {verdict}")
sys.exit(1 if ratio > 16.0 else 0)
EOF

echo "=== durability gates (Release, durability_bench) ==="
# The WAL cost envelope at 10^6 facts: journaling a mutation (encode +
# CRC32C + group-commit buffering) must cost <= 15% over the bare
# TiStore mutator. Snapshot write/restore throughput and full recovery
# time (snapshot + 10^4-record WAL replay) are reported alongside.
dur_json="build-release/BENCH_durability.json"
rm -f "${dur_json}"
./build-release/bench/durability_bench --facts=1000000 \
  --bench_json_out="${dur_json}" >/dev/null
python3 - "${dur_json}" <<'EOF'
import json, sys

rows = {r["op"]: r["counters"]
        for r in json.load(open(sys.argv[1]))["results"]}
write = rows["snapshot/write/1e6"]["mb_per_s"]
restore = rows["snapshot/restore/1e6"]["mb_per_s"]
recovery = rows["recover/1e6"]["recovery_ms"]
overhead = rows["wal/append_overhead"]["wal_overhead"]
print(f"  snapshot write {write:6.1f} MB/s, restore {restore:6.1f} MB/s, "
      f"recovery at 10^6 facts {recovery:6.1f} ms")
verdict = "ok" if overhead <= 0.15 else "FAIL (> 15%)"
print(f"  WAL append overhead vs bare mutator: {overhead:+.1%}   {verdict}")
sys.exit(1 if overhead > 0.15 else 0)
EOF

echo "=== query-service load gates (Release, serve_bench) ==="
# The closed-loop harness drives the multi-tenant front door at 1/4/16
# concurrent clients plus an open-arrival overload burst, and gates:
#  * p99 latency at the closed 16-client row stays under 250 ms — the
#    serving budget for the mixed workload on a warm artifact cache;
#  * the closed rows shed (almost) nothing: a closed loop offers at
#    most its client count in flight, far below the admission ceiling;
#  * the overload row sheds SOME but not everything: the ladder
#    degrades gracefully instead of collapsing or silently queueing;
#  * no row reports non-shed errors;
#  * accounting_drift == 0: per-tenant accounting of the shared
#    artifact cache still partitions the resident set exactly, with the
#    tenants' prepared queries resident;
#  * closed/16 prepared_hits > 0: repeated texts are answered by their
#    tenant's prepared query, skipping parse, compile and grounding;
#  * label_drift == 0: the per-tenant serve.latency_ns family sums
#    exactly to the unlabeled aggregate on every row;
#  * slo_breaching: the burn-rate engine stays quiet through the
#    closed rows and flips the overload tenant's availability SLO to
#    "breaching" under the open-arrival burst;
#  * the daemon leg round-trips QUERY -> TRACE -> STATS over loopback
#    (tolerated as skipped only where sockets are unavailable).
serve_json="build-release/BENCH_serve.json"
serve_trace="build-release/TRACE_serve.json"
rm -f "${serve_json}" "${serve_trace}"
./build-release/bench/serve_bench --quick \
  --bench_json_out="${serve_json}" --trace-out "${serve_trace}" >/dev/null
python3 - "${serve_json}" <<'EOF'
import json, sys

rows = {r["op"]: r["counters"] for r in
        json.load(open(sys.argv[1]))["results"]}
failed = False

def gate(label, ok):
    global failed
    print(f"  {label:58s} {'ok' if ok else 'FAIL'}")
    failed |= not ok

load_rows = ("closed/1", "closed/4", "closed/16", "open/overload")
for op in load_rows + ("daemon/roundtrip",):
    assert op in rows, f"row {op} missing from BENCH_serve.json"

p99 = rows["closed/16"]["p99_ms"]
gate(f"closed/16 p99 = {p99:.1f} ms (budget 250 ms)", p99 <= 250.0)
for op in ("closed/1", "closed/4", "closed/16"):
    shed = rows[op]["shed_rate"]
    gate(f"{op} shed_rate = {shed:.3f} (closed loop, <= 0.01)",
         shed <= 0.01)
overload = rows["open/overload"]["shed_rate"]
gate(f"open/overload shed_rate = {overload:.3f} (in (0, 0.99])",
     0.0 < overload <= 0.99)
for op in load_rows:
    counters = rows[op]
    gate(f"{op} error_rate = {counters['error_rate']:.3f} (== 0)",
         counters["error_rate"] == 0.0)
    gate(f"{op} accounting_drift = {counters['accounting_drift']:.0f}",
         counters["accounting_drift"] == 0.0)
    gate(f"{op} label_drift = {counters['label_drift']:.0f} (== 0)",
         counters["label_drift"] == 0.0)
hits = rows["closed/16"]["cache_hits"]
gate(f"closed/16 artifact-cache hits = {hits:.0f} (> 0)", hits > 0)
prepared = rows["closed/16"]["prepared_hits"]
gate(f"closed/16 prepared-query hits = {prepared:.0f} (> 0)", prepared > 0)

for op in ("closed/1", "closed/4", "closed/16"):
    breaching = rows[op]["slo_breaching"]
    gate(f"{op} slo_breaching = {breaching:.0f} (== 0)", breaching == 0.0)
breaching = rows["open/overload"]["slo_breaching"]
gate(f"open/overload slo_breaching = {breaching:.0f} (>= 1)",
     breaching >= 1.0)

daemon = rows["daemon/roundtrip"]
if daemon["daemon_skipped"] == 1.0:
    gate("daemon/roundtrip skipped (no loopback sockets)", True)
else:
    gate(f"daemon queries_ok = {daemon['queries_ok']:.0f} (== 20)",
         daemon["queries_ok"] == 20.0)
    gate(f"daemon trace_trees = {daemon['trace_trees']:.0f} (== 20)",
         daemon["trace_trees"] == 20.0)
    gate(f"daemon stats_ok = {daemon['stats_ok']:.0f} (== 1)",
         daemon["stats_ok"] == 1.0)
sys.exit(1 if failed else 0)
EOF

echo "=== serve trace artifact: per-request span-tree connectivity ==="
# Every QUERY the load harness issued must reassemble into one
# connected span tree rooted at serve.request from the Chrome-trace
# args (trace/span/parent): >= 95% of request traces with exactly one
# root named serve.request and no orphan spans (a span whose parent id
# is absent from its own trace).
python3 - "${serve_trace}" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
by_trace = {}
for event in doc["traceEvents"]:
    args = event.get("args", {})
    trace = args.get("trace", 0)
    if trace:
        by_trace.setdefault(trace, []).append(
            (event["name"], args["span"], args.get("parent", 0)))

total = len(by_trace)
connected = 0
for spans in by_trace.values():
    ids = {span for _, span, _ in spans}
    roots = [(name, span) for name, span, parent in spans if parent == 0]
    ok = (len(roots) == 1 and roots[0][0] == "serve.request"
          and all(parent in ids for _, _, parent in spans if parent != 0))
    connected += ok
frac = connected / max(1, total)
verdict = "ok" if total > 0 and frac >= 0.95 else "FAIL"
print(f"  request traces: {total}, fully connected under serve.request: "
      f"{connected} ({100 * frac:.1f}%, need >= 95%)   {verdict}")
sys.exit(0 if verdict == "ok" else 1)
EOF

echo "=== observability overhead gate (Release vs obs-off) ==="
# The permanently-instrumented serving path must cost within 5% of the
# same code with the macros compiled out. Both runs write into their own
# build dirs so the repo-root BENCH_pqe.json is left alone. The builds
# take turns, five single-repetition runs each, so a slow stretch of the
# host lands on both instead of on one; the min of each build's five
# damps scheduler noise.
overhead_row='BM_WmcPathQuery/32'
for round in 1 2 3 4 5; do
  for dir in build-release build-obs-off; do
    rm -f "${dir}/BENCH_ci_overhead_${round}.json"
    ./"${dir}"/bench/pqe_bench \
      --bench_json_out="${dir}/BENCH_ci_overhead_${round}.json" \
      --benchmark_filter="${overhead_row}\$" \
      --benchmark_min_time=0.1 >/dev/null
  done
done
python3 - "${overhead_row}" <<'EOF'
import json, sys

row = sys.argv[1]
def best(build):
    rows = []
    for round in range(1, 6):
        path = f"{build}/BENCH_ci_overhead_{round}.json"
        rows += [r["ns_per_op"] for r in json.load(open(path))["results"]
                 if r["op"] == row]
    assert len(rows) == 5, f"expected 5 '{row}' rows from {build}"
    return min(rows)

on = best("build-release")
off = best("build-obs-off")
ratio = on / off
verdict = "ok" if ratio <= 1.05 else "FAIL (> 5% overhead)"
print(f"  {row}: instrumented {on:.0f} ns vs compiled-out {off:.0f} ns "
      f"= {ratio:5.3f}x   {verdict}")
sys.exit(1 if ratio > 1.05 else 0)
EOF

echo "=== trace artifact: span coverage + counter consistency ==="
# A real --trace-out run must attribute >= 95% of pqe.query wall-clock
# to named child phases, and the embedded metrics snapshot must satisfy
# artifact-cache hits + misses == queries. The trace is left in
# build-release/artifacts/ for upload.
mkdir -p build-release/artifacts
trace_json="build-release/artifacts/pqe_trace.json"
rm -f "${trace_json}"
./build-release/bench/pqe_bench \
  --bench_json_out=build-release/BENCH_ci_trace.json \
  --benchmark_filter='BM_WmcPathQuery/32$' --benchmark_min_time=0.1 \
  --trace-out "${trace_json}" >/dev/null
python3 - "${trace_json}" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
names = {e["name"] for e in events}
for required in ("pqe.query", "pqe.lifted", "pqe.ground", "pqe.cache_probe",
                 "pqe.evaluate", "kc.compile"):
    assert required in names, f"span {required} missing from trace"

phases = [e for e in events
          if e["name"] in ("pqe.lifted", "pqe.ground", "pqe.cache_probe",
                           "pqe.evaluate")]
total = covered = 0.0
for q in (e for e in events if e["name"] == "pqe.query"):
    total += q["dur"]
    end = q["ts"] + q["dur"]
    covered += sum(p["dur"] for p in phases
                   if p["tid"] == q["tid"] and p["ts"] >= q["ts"]
                   and p["ts"] + p["dur"] <= end
                   and p["args"]["depth"] == q["args"]["depth"] + 1)
coverage = covered / total if total else 0.0
print(f"  phase coverage of pqe.query wall-clock: {coverage:.1%}")
assert coverage >= 0.95, "trace spans cover < 95% of query time"

counters = trace["otherData"]["metrics"]["counters"]
hits = counters["kc.artifact_cache.hits"]
misses = counters["kc.artifact_cache.misses"]
queries = counters["pqe.queries"]
print(f"  kc.artifact_cache: {hits} hits + {misses} misses "
      f"== {queries} queries")
assert hits + misses == queries, "cache probes != queries"
assert trace["otherData"]["droppedEvents"] == 0, "trace dropped events"
print(f"  artifact: {sys.argv[1]} ({len(events)} spans)")
EOF

echo "=== ci.sh: all green ==="
