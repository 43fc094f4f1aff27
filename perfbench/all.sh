#!/usr/bin/env bash
# Runs every workload in turn, each in its own process, and prints each
# one's metrics; exits non-zero if any run fails or reports incorrect
# outputs.
#
#   bash perfbench/all.sh [seed] [seconds] [trace]
set -euo pipefail
dir="$(dirname "${BASH_SOURCE[0]}")"
status=0
for w in fig12 fleet daemon; do
  out="$(bash "$dir/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-10}" --trace "${3:-0}")" || status=1
  printf '%s\n' "$out"
  [[ "$(tail -n 1 <<<"$out")" == '{"correct":true,'* ]] || status=1
done
exit "$status"
