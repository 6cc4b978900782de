#!/usr/bin/env bash
# figure_claims — the paper's figure claims as predicates over the figure
# benches' printed rows, run at quick settings (PATHLOAD_QUICK=1).
#
#   fig05: at every load and for both traffic models, the averaged pathload
#          range [pl_low, pl_high] contains the true avail-bw (avail_Mbps).
#   fig12: at the same utilization, the 75th-percentile rho rises as the
#          degree of statistical multiplexing falls: A < B < C on the
#          "75th-pct rho:" line.
#
# A predicate fails on any row that breaks it, and also when the bench
# prints no rows or fewer than it should (or no summary line), so it
# cannot pass vacuously.
#
# Usage: figure_claims.sh <bench_binary_dir> [fig05|fig12]   (default fig05)

set -u

bin=${1:?usage: figure_claims.sh <bench_binary_dir> [fig05|fig12]}
figure=${2:-fig05}

run_quick() {
  PATHLOAD_QUICK=1 "$bin/$1" || {
    echo "figure_claims: $1 exited non-zero" >&2
    exit 1
  }
}

case $figure in
fig05)
  out=$(run_quick fig05_accuracy_load) || exit 1
  # Rows follow the dashed rule: traffic util_% avail pl_low pl_high ...
  echo "$out" | awk '
    /^---/ { table = 1; next }
    table && NF == 0 { table = 0 }
    table {
      rows++
      if (!($4 <= $3 && $3 <= $5)) {
        printf "fig05: %s at %s%%: A = %s outside [%s, %s]\n", $1, $2, $3, $4, $5
        bad++
      }
    }
    END {
      if (rows != 8) { printf "fig05: expected 8 rows, found %d\n", rows; exit 1 }
      if (bad > 0) exit 1
      printf "fig05: all %d rows cover A\n", rows
    }
  '
  ;;
fig12)
  out=$(run_quick fig12_stat_mux) || exit 1
  # The summary line: "75th-pct rho: A=0.46  B=0.74  C=1.15".
  echo "$out" | awk '
    /^75th-pct rho:/ {
      found = 1
      for (i = 3; i <= NF; i++) { split($i, kv, "="); rho[kv[1]] = kv[2] + 0 }
      if (!(("A" in rho) && ("B" in rho) && ("C" in rho))) {
        printf "fig12: cannot read A, B and C from: %s\n", $0; exit 1
      }
      if (!(rho["A"] < rho["B"] && rho["B"] < rho["C"])) {
        printf "fig12: 75th-pct rho not increasing A < B < C: %s\n", $0; exit 1
      }
      printf "fig12: 75th-pct rho A=%s < B=%s < C=%s\n", rho["A"], rho["B"], rho["C"]
    }
    END { if (!found) { print "fig12: no \"75th-pct rho:\" line"; exit 1 } }
  '
  ;;
*)
  echo "figure_claims: unknown figure '$figure' (fig05 or fig12)" >&2
  exit 2
  ;;
esac
