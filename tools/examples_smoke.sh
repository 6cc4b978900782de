#!/usr/bin/env bash
# examples_smoke — run every simulated example and require its stdout to be
# byte-identical (cmp) to the golden copy in tests/examples_golden/. The
# examples are seeded simulations, so any difference means the scenario
# they build, or the measurement they print, changed. scenario_runner runs
# its plain pathload --run form four ways: a load sweep as a table, CSV and
# JSON, and one preset at its own configured load.
#
# Usage: examples_smoke.sh <examples_binary_dir> <golden_dir>

set -u

bin=${1:?usage: examples_smoke.sh <examples_binary_dir> <golden_dir>}
golden=${2:?usage: examples_smoke.sh <examples_binary_dir> <golden_dir>}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

status=0
# golden file name (without .txt), example name, then the example's arguments.
while read -r stem name args; do
  # shellcheck disable=SC2086  # args is a word list on purpose
  if ! "$bin/$name" $args > "$workdir/$stem.txt"; then
    echo "examples_smoke: $name $args exited non-zero" >&2
    status=1
  elif ! cmp "$golden/$stem.txt" "$workdir/$stem.txt"; then
    diff "$golden/$stem.txt" "$workdir/$stem.txt" >&2
    status=1
  fi
done <<'LIST'
quickstart quickstart
bandwidth_tools bandwidth_tools
streaming_rate_adaptation streaming_rate_adaptation
tcp_ssthresh_tuning tcp_ssthresh_tuning
dynamics_study dynamics_study 2
scenario_runner_sweep scenario_runner --run paper-path --runs 3 --seed 7 --sweep load=0.3,0.9
scenario_runner_sweep_csv scenario_runner --run paper-path --runs 3 --seed 7 --sweep load=0.3,0.9 --format csv
scenario_runner_sweep_json scenario_runner --run paper-path --runs 3 --seed 7 --sweep load=0.3,0.9 --format json
scenario_runner_own_load_json scenario_runner --run fig11-access --runs 2 --seed 7 --format json
LIST
exit $status
