#!/bin/sh
# Build the benchmark if needed, then run it; call from the repository root:
#   sh benchmark/run.sh --workload rbtree-read --seed 1 --seconds 20 --trace 0
# The dune cache stays off so that building writes only under _build/.
exec dune exec --root . --no-print-directory --display quiet --cache disabled \
  benchmark/e2e.exe -- "$@"
