#!/usr/bin/env bash
# Build the benchmark and the rcn binary from source, then run one
# workload.  Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload census-full --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result (see perfbench/NOTES.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
dune build --root . --cache=disabled perfbench/main.exe bin/rcn.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
