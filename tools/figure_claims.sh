#!/usr/bin/env bash
# figure_claims — the paper's figure claims as predicates over the figure
# benches' printed rows, run at quick settings (PATHLOAD_QUICK=1).
#
#   fig05: at every load and for both traffic models, the averaged pathload
#          range [pl_low, pl_high] contains the true avail-bw (avail_Mbps).
#
# A predicate fails on any row that breaks it, and also when the bench
# prints no rows or fewer than it should, so it cannot pass vacuously.
#
# Usage: figure_claims.sh <bench_binary_dir>

set -u

bin=${1:?usage: figure_claims.sh <bench_binary_dir>}
out=$(PATHLOAD_QUICK=1 "$bin/fig05_accuracy_load") || {
  echo "figure_claims: fig05_accuracy_load exited non-zero" >&2
  exit 1
}

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
