#!/usr/bin/env bash
# bench_e2e — the figure suite as one end-to-end number.
#
# Runs the 17 figure/table benches (every bench/ binary except micro_core)
# one after another, first at quick settings (PATHLOAD_QUICK=1), then at
# default settings, keeping each bench's stdout. With a reference
# directory (the <out_dir> of an earlier run, e.g. on the parent commit),
# every stdout must be byte-identical (cmp) to its reference copy. Appends
# one JSON-lines row to the ledger: date, commit, nproc, compiler, build
# type, PATHLOAD_THREADS, wall seconds per bench and per pass, and whether
# the outputs matched the reference.
#
# A wall time is the interval from starting a bench's process to its exit,
# measured here with date(1); the benches run serially, so a pass total is
# the time a user waits for that pass.
#
# Usage: bench_e2e.sh <build_dir> <out_dir> [reference_dir]
#   BENCH_E2E_LEDGER  ledger path (default: BENCH_e2e.json at the repo root)
#   BENCH_E2E_COMMIT  commit label (default: git HEAD of the build's sources)
# Exit status: 0, or 1 when a bench fails or an output differs.

set -u

build=${1:?usage: bench_e2e.sh <build_dir> <out_dir> [reference_dir]}
out=${2:?usage: bench_e2e.sh <build_dir> <out_dir> [reference_dir]}
ref=${3:-}
here=$(cd "$(dirname "$0")/.." && pwd)
ledger=${BENCH_E2E_LEDGER:-"$here/BENCH_e2e.json"}

benches=(fig01_03_owd_trends fig05_accuracy_load fig06_nontight_load
         fig07_tightness fig08_fraction_f fig09_pdt_threshold
         fig10_verification fig11_variability_load fig12_stat_mux
         fig13_stream_length fig14_fleet_length fig15_16_btc
         fig17_18_intrusiveness latency_table baselines_table
         ablation_grey_region ablation_metrics)

for b in "${benches[@]}"; do
  if [ ! -x "$build/bench/$b" ]; then
    echo "bench_e2e: $build/bench/$b not found (build first)" >&2
    exit 2
  fi
done

cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt" 2>/dev/null | head -n 1
}
src_dir=$(cache_value CMAKE_HOME_DIRECTORY)
commit=${BENCH_E2E_COMMIT:-$(git -C "${src_dir:-$here}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}
compiler_path=$(cache_value CMAKE_CXX_COMPILER)
compiler=$("${compiler_path:-c++}" --version 2>/dev/null | head -n 1)
build_type=$(cache_value CMAKE_BUILD_TYPE)

now() { date +%s.%N; }
elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", b - a }'; }

status=0
compared=0
mismatches=0
json_passes=""
for pass in quick default; do
  mkdir -p "$out/$pass"
  json=""
  pass_start=$(now)
  for b in "${benches[@]}"; do
    start=$(now)
    if [ "$pass" = quick ]; then
      PATHLOAD_QUICK=1 "$build/bench/$b" > "$out/$pass/$b.txt"
    else
      env -u PATHLOAD_QUICK "$build/bench/$b" > "$out/$pass/$b.txt"
    fi
    rc=$?
    end=$(now)
    if [ $rc -ne 0 ]; then
      echo "bench_e2e: $b ($pass) exited $rc" >&2
      status=1
    fi
    if [ -n "$ref" ]; then
      compared=$((compared + 1))
      if ! cmp -s "$ref/$pass/$b.txt" "$out/$pass/$b.txt"; then
        echo "bench_e2e: $b ($pass) differs from $ref/$pass/$b.txt" >&2
        mismatches=$((mismatches + 1))
        status=1
      fi
    fi
    t=$(elapsed "$start" "$end")
    printf '%-24s %-8s %7s s\n' "$b" "$pass" "$t"
    json="$json\"$b\": $t, "
  done
  total=$(elapsed "$pass_start" "$(now)")
  printf '%-24s %-8s %7s s\n' "total" "$pass" "$total"
  json_passes="$json_passes\"$pass\": {${json}\"total\": $total}, "
done

if [ -n "$ref" ]; then
  identical=$([ "$mismatches" -eq 0 ] && echo true || echo false)
else
  identical=null
fi
printf '{"date": "%s", "commit": "%s", "nproc": %s, "compiler": "%s", "build_type": "%s", "threads": "%s", %s"outputs_compared": %d, "identical_to_reference": %s}\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$commit" "$(nproc)" "$compiler" \
  "${build_type:-unknown}" "${PATHLOAD_THREADS:-auto}" "$json_passes" \
  "$compared" "$identical" >> "$ledger"
echo "bench_e2e: row appended to $ledger"
exit $status
