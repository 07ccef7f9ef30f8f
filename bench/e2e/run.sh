#!/usr/bin/env bash
# Build the CLI and the benchmark from this source tree, then run it.
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Arguments go to e2e.exe unchanged (see bench/e2e/README.md).  The last
# line of standard output is the JSON result; build output goes to stderr.
set -eu
cd "$(dirname "$0")/../.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/butterfly_cli.ml ]; then
  echo "run.sh: $(pwd) holds no butterfly source tree to build" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

dune build bin/butterfly_cli.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe \
  --cli ./_build/default/bin/butterfly_cli.exe "$@"
