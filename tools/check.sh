#!/bin/sh
# Runs the tier-1 verify (configure, build, ctest) twice: once plain and once
# with ASan+UBSan via the SPRITE_SANITIZE cache option. Each pass uses its own
# build directory so the instrumented objects never mix with the normal ones.
# Both passes run the same ctest suite, which includes the golden scenarios
# (one golden.<row> case per row of tools/golden.py: committed baselines in
# tools/baselines/, needles, trace checks, same-seed reruns and off-mode
# comparisons) and the runner's own self-test.
# The sanitize pass additionally re-runs the randomized rebalance suites
# through ctest --repeat until-pass:1 as a determinism sweep.
# Finally (plain mode only) a perf gate builds Release trees of this checkout
# and of its base (the merge-base with main, or HEAD's parent when that is
# HEAD; see perf_base), checked out as a git worktree under build-release/,
# and A/Bs their BM_Simulate* scenarios on this host via
# tools/bench_trajectory.py check: seven interleaved pairs per scenario,
# alternating which side runs first; a median per-pair growth of wall ms
# per simulated hour above 10% fails the build. Skipped gracefully when google-benchmark
# is not installed.
#
# Usage: tools/check.sh [--plain-only|--sanitize-only]
set -eu

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

randomized_sweep() {
  build_dir="$1"
  echo "== ${build_dir}: randomized-test determinism sweep =="
  # Re-runs the seeded randomized suites (property churn sequences and the
  # same-seed cluster runs) as their own stage under the sanitizers; any
  # nondeterminism or sanitizer report fails the pass.
  ctest --test-dir "${build_dir}" --output-on-failure --repeat until-pass:1 \
    -R "RebalanceSequenceProperty|SameSeedRebalancedRuns|Deterministic"
}

# Prints the commit the perf gate builds as its base side: the merge-base with
# main, or, when that is HEAD itself (the change is committed on main, or
# there is no main to branch from), HEAD when uncommitted edits are the change
# and HEAD's parent when the tree is clean. Fails when there is nothing to
# compare against.
perf_base() {
  base=""
  if git rev-parse --verify --quiet main >/dev/null; then
    base="$(git merge-base HEAD main)" ||
      echo "perf gate: HEAD and main share no commit" >&2
  else
    echo "perf gate: no local main branch to take a merge-base with" >&2
  fi
  head="$(git rev-parse HEAD)"
  if [ -n "${base}" ] && [ "${base}" != "${head}" ]; then
    echo "${base}"
  elif ! git diff --quiet HEAD --; then
    echo "perf gate: uncommitted edits against HEAD ${head}" >&2
    echo "${head}"
  elif git rev-parse --verify --quiet HEAD^ >/dev/null; then
    echo "perf gate: the base would be HEAD and the tree is clean; comparing HEAD with its parent" >&2
    git rev-parse HEAD^
  else
    echo "perf gate: clean tree at a root commit; nothing to compare against" >&2
    return 1
  fi
}

perf_gate() {
  build_dir="build-release"
  echo "== ${build_dir}: perf gate =="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}"
  if [ ! -x "${build_dir}/bench/micro_perf" ]; then
    echo "perf gate: google-benchmark not installed; skipping"
    return 0
  fi
  base="$(perf_base)"
  echo "perf gate: base ${base}"
  # The base's sources live in a reused worktree, built in its own directory
  # next to it.
  base_src="${build_dir}/merge-base"
  if [ -e "${base_src}/.git" ]; then
    git -C "${base_src}" checkout --quiet --detach "${base}"
  else
    git worktree prune
    git worktree add --quiet --detach "${base_src}" "${base}"
  fi
  cmake -B "${build_dir}/merge-base-build" -S "${base_src}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}/merge-base-build" -j "${jobs}" --target micro_perf
  python3 tools/bench_trajectory.py check \
    --base "${build_dir}/merge-base-build/bench/micro_perf" \
    --change "${build_dir}/bench/micro_perf" --min-time 0.3 --threshold 0.10
}

run_pass() {
  build_dir="$1"
  shift
  echo "== ${build_dir}: cmake $* =="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  case "${build_dir}" in
    *sanitize*) randomized_sweep "${build_dir}" ;;
  esac
}

mode="${1:-all}"
case "${mode}" in
  all|--plain-only|--sanitize-only) ;;
  *)
    echo "usage: tools/check.sh [--plain-only|--sanitize-only]" >&2
    exit 2
    ;;
esac

if [ "${mode}" != "--sanitize-only" ]; then
  run_pass build
  perf_gate
fi
if [ "${mode}" != "--plain-only" ]; then
  run_pass build-sanitize "-DSPRITE_SANITIZE=address;undefined"
fi

echo "check.sh: all requested passes OK"
