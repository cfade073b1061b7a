#!/bin/sh
# Build clof_perf from the checkout this script sits in, then run it
# with the given arguments, e.g.
#   sh clof_perf/run.sh --workload sweep --seed 0 --seconds 20 --trace 0
# The build happens on first use; it writes only under _build/ and
# bypasses dune's shared cache, so nothing is written outside the
# checkout.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
exec dune exec --root . --cache=disabled --display=quiet \
  ./clof_perf/clof_perf.exe -- "$@"
