#!/usr/bin/env bash
# One-command gate: configure, build, run the tier-1 tests, smoke the
# benches for a few seconds each (the reclamation ablation E7 and the
# E1-E3 speedup tables among them), then run the model-check smoke.
# Usage: scripts/check.sh [build-dir]
#
# set -euo pipefail is load-bearing for the smokes below: their output is
# piped through tee into logs, and without `pipefail` a crashing bench
# would be masked by tee's zero exit status — the gate would "pass" on a
# broken bench binary.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j 2

# Runs one bench smoke, teeing its table into the build dir; the bench's
# own exit code decides the gate (pipefail propagates it past tee).
# SMOKE_TAG=<tag> names the log "<bench>.<tag>.smoke.log" so one bench
# can be smoked under several flag sets without clobbering its log.
smoke() {
  local bench="$1"
  shift
  "$build_dir/$bench" "$@" \
    | tee "$build_dir/$bench${SMOKE_TAG:+.$SMOKE_TAG}.smoke.log"
}

# Smoke: the batch-combining bench's quick sweep proves the batch install
# path runs end to end — including the 6-structure sorted-batch matrix.
smoke bench_batch_combining --quick

# Smoke: the store layer's quick sweep proves ShardedMap drives both UC
# backends (concept conformance at runtime), the cross-shard splitter in
# sync and async (ShardExecutor) ingest modes, the consistent-cut read
# section, and the structure sweep through the combining backend.
smoke bench_sharded --quick

# Smoke: the async pipeline in isolation — executor-attached ingest only,
# so a regression that deadlocks the scatter/join path fails fast here.
SMOKE_TAG=async smoke bench_sharded --quick --ingest async

# Smoke: the lock-free executor lanes — the contended multi-client cell
# must coalesce cross-ticket batches (mean tickets/wake > 1 end to end,
# OpStats -> board -> JSON) or the bench exits 1; the lanes JSON lands
# next to the log for inspection.
SMOKE_TAG=coalesce smoke bench_sharded --quick --ingest async \
  --assert-coalesce --lanes-json "$build_dir/BENCH_executor_lanes.json"

# Smoke: the batched read path — probe sweeps vs per-key reads plus the
# read-coalescing cell. --assert-read-coalesce fails the gate unless a
# worker wakeup absorbs > 1 read ticket into one merged sweep AND the
# hot-256 B=64 sweep beats per-key reads; the JSON lands next to the log.
SMOKE_TAG=multiget smoke bench_readmix --quick --multiget \
  --assert-read-coalesce --json "$build_dir/BENCH_readmix_multiget.json"

# Smoke: continuous tablet rebalancing under a Zipfian offered load —
# the adaptive-tablet row runs Rebalancer::tick() against live traffic;
# the sweep's own asserts fail the gate unless every adaptive-tablet cell
# (per-op, sync and async) reached balance (max/ideal <= 1.3x) while
# moving <= 25% of resident keys, never exceeding the per-interval
# migration budget. The skew rows land in the
# JSON next to the log.
SMOKE_TAG=skew smoke bench_sharded --quick --skew zipf --assert-migrated \
  --json "$build_dir/BENCH_sharded_skew.json"

# Smoke: the structure ablation (E8 + E8b batch matrix) covers every
# persistent structure's per-op and sorted-batch install paths.
smoke bench_ablation_structure --quick

# Smoke: the memory loop (E6b) — --assert-recycle fails the gate unless
# the contended cell actually recycled failed-attempt nodes AND the
# batched retire path cost fewer backend lock trips per op than the
# per-node baseline; the JSON lands next to the log for inspection.
SMOKE_TAG=recycle smoke bench_ablation_alloc --quick \
  --json "$build_dir/BENCH_alloc_recycle.json" --assert-recycle

# Smoke: the reclamation ablation (E7) — the only bench that drives the
# watermark and hazard-era reclaimers under concurrent Atom updates, so a
# crash or hang in the version-keyed body fails here.
smoke bench_ablation_reclaim --quick

# Smoke: the paper's speedup tables (E1-E3). Each prints the published,
# measured and simulated tables; --quick runs the measured one at small
# size, so a crash in the headline benches fails the gate.
smoke bench_table_xeon5220 --quick
smoke bench_table1_xeon8160 --quick
smoke bench_table2_epyc7662 --quick

# Gate: the four JSON files the smokes above wrote must parse. Every
# BENCH_*.json comes from one row writer (src/bench_util/json_rows.hpp),
# so a malformed row fails here instead of reaching a checked-in artifact.
for artifact in executor_lanes readmix_multiget sharded_skew alloc_recycle; do
  python3 -m json.tool "$build_dir/BENCH_$artifact.json" > /dev/null
done

# Smoke: the store benchmark. run.sh builds benchmark/ into build-bench/
# (its static_asserts pin the universal constructions' entry points),
# runs every workload at 1/16 keys with 1 s windows plus the traced run,
# and exits non-zero on a build error or a wrong per-op outcome; its
# ctest covers the histogram self-test and compare_test.py.
bash "$repo_root/benchmark/run.sh" --smoke --trace
ctest --test-dir "$repo_root/build-bench" --output-on-failure

# Smoke: the deterministic-scheduler model checker. A separate build tree
# because PATHCOPY_MODELCHECK=ON compiles the PC_YIELD decision points
# into the protocols (the tier-1 binaries above stay the unmodified
# measurement build). Time-boxed to the seeded random-walk suite plus the
# replayed regression corpus — the exhaustive sweeps run in CI's
# dedicated modelcheck job. The gtest exit status decides the gate
# (pipefail past tee, as for the bench smokes); any failing walk prints
# its seed, and PATHCOPY_MC_SEED=<seed> re-runs that exact schedule:
#   PATHCOPY_MC_SEED=<seed> build-mc/test_model_check \
#     --gtest_filter='ModelCheckSmoke.*'
mc_dir="$build_dir-mc"
cmake -B "$mc_dir" -S "$repo_root" -DPATHCOPY_MODELCHECK=ON
cmake --build "$mc_dir" -j "$(nproc)" --target test_model_check
# The filter keeps the smoke time-boxed: random walks (now including the
# lane ring and park/wake protocols), the replayed regression corpus,
# the two fast lane mutant positive controls, and the reclaimers'
# windows (`ModelCheckReclaim.*`: the version-keyed retire/collect window
# under both pin rules and EBR's pin and retire/advance windows, each
# exhaustive and well under a second) — the other exhaustive sweeps stay
# in the modelcheck CI job.
"$mc_dir/test_model_check" \
  --gtest_filter='ModelCheckSmoke.*:ModelCheckAtom.CorpusTraceReproducesTheLegacyAba:ModelCheckCut.*:ModelCheckLane.SkippingTheSlotStampCheckLosesAnElement:ModelCheckLane.DroppingTheParkRecheckReopensTheLostWakeup:ModelCheckReclaim.*' \
  | tee "$mc_dir/test_model_check.smoke.log"

echo "check.sh: all gates passed"
