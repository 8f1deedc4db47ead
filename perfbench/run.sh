#!/usr/bin/env bash
# Build calq and the load generator from this checkout's sources, then
# run the benchmark (arguments are passed through):
#   bash perfbench/run.sh --workload cal_read --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/calq.exe ./perfbench/perfbench.exe 1>&2
exe=./_build/default/perfbench/perfbench.exe
# Host facts the generator only records: the CPU count before pinning
# narrows what it can see, and the revision when the checkout is a git
# work tree of its own.
export PERFBENCH_NPROC="$(nproc 2>/dev/null || echo unknown)"
export PERFBENCH_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
# Client and server share the first CPU this process may use; the server
# inherits the placement. With one closed-loop connection only one of
# them runs at a time, and each reply then wakes a process on a CPU that
# is already running instead of a halted one. Unpinned when taskset is
# missing or refuses; the placement is recorded in the output either way.
if command -v taskset >/dev/null 2>&1; then
  cpu="$(taskset -pc $$ 2>/dev/null | sed 's/.*: //; s/[,-].*//')" || cpu=""
  if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$exe" "$@"
  fi
fi
exec "$exe" "$@"
