#!/usr/bin/env bash
# The serving benchmark's entry point (see BENCHMARK.json):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Builds the benchmark and the libraries it
# measures from source into .bench_build, then runs it; build output goes
# to stderr, so the last stdout line is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an rsin source tree" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet \
  ./perfbench/bench.exe 1>&2

sha=unknown
if [ -d .git ]; then
  sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec .bench_build/default/perfbench/bench.exe --git-sha "$sha" "$@"
