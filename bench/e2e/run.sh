#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the
# arguments given, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload hall_1k --seed 42 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --traced          # every workload, plus the ledger
#
# The last line of standard output is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: no dune project here; run it from a full checkout" >&2
  exit 2
fi
# The shared build cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/main.exe
exec ./_build/default/bench/e2e/main.exe "$@"
