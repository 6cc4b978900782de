#!/usr/bin/env bash
# examples_smoke — run every simulated example and require its stdout to be
# byte-identical (cmp) to the golden copy in tests/examples_golden/. The
# examples are seeded simulations, so any difference means the scenario
# they build, or the measurement they print, changed.
#
# Usage: examples_smoke.sh <examples_binary_dir> <golden_dir>

set -u

bin=${1:?usage: examples_smoke.sh <examples_binary_dir> <golden_dir>}
golden=${2:?usage: examples_smoke.sh <examples_binary_dir> <golden_dir>}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

status=0
# name, then the example's arguments.
while read -r name args; do
  # shellcheck disable=SC2086  # args is a word list on purpose
  if ! "$bin/$name" $args > "$workdir/$name.txt"; then
    echo "examples_smoke: $name $args exited non-zero" >&2
    status=1
  elif ! cmp "$golden/$name.txt" "$workdir/$name.txt"; then
    diff "$golden/$name.txt" "$workdir/$name.txt" >&2
    status=1
  fi
done <<'LIST'
quickstart
bandwidth_tools
streaming_rate_adaptation
tcp_ssthresh_tuning
dynamics_study 2
LIST
exit $status
