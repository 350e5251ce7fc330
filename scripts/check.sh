#!/usr/bin/env bash
# One-command gate: configure, build, run the tier-1 tests, smoke the
# benches for a few seconds each (scripts/smoke.sh: the reclamation
# ablation E7 and the E1-E3 speedup tables among them), then run the
# model-check smoke.
# Usage: scripts/check.sh [build-dir]
#
# set -euo pipefail is load-bearing for the model-check smoke below: its
# output is piped through tee into a log, and without `pipefail` a failing
# run would be masked by tee's zero exit status.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j 2

# The bench smokes, their JSON parse and the store-benchmark smoke: one
# list, shared with CI's tier1 job.
bash "$repo_root/scripts/smoke.sh" "$build_dir"

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
# the two fast lane mutant positive controls, the batch install loop's
# lost-CAS halving (exhaustive, a few milliseconds), and the reclaimers'
# windows (`ModelCheckReclaim.*`: the version-keyed retire/collect window
# under both pin rules and EBR's pin and retire/advance windows, each
# exhaustive and well under a second) — the other exhaustive sweeps stay
# in the modelcheck CI job.
"$mc_dir/test_model_check" \
  --gtest_filter='ModelCheckSmoke.*:ModelCheckAtom.CorpusTraceReproducesTheLegacyAba:ModelCheckCut.*:ModelCheckLane.SkippingTheSlotStampCheckLosesAnElement:ModelCheckLane.DroppingTheParkRecheckReopensTheLostWakeup:ModelCheckWindow.BatchLoopHalvesAfterALostInstallAndStaysExact:ModelCheckReclaim.*' \
  | tee "$mc_dir/test_model_check.smoke.log"

echo "check.sh: all gates passed"
