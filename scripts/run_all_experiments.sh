#!/usr/bin/env bash
# Regenerates every table and figure of the paper (plus the extension
# experiments) into out/experiments/. Scale can be overridden per run:
#   SCALAGRAPH_SCALE=256 scripts/run_all_experiments.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=out/experiments
mkdir -p "$out"
# scripts/regen_experiments_md.py reads this list: every experiment binary
# (all of crates/bench/src/bin but the bench_* harnesses) must be on it.
bins=(tables_1_3 fig4 fig6 fig8 table2 fig14 fig16 fig17 fig18 \
      fig19a fig19b fig20 fig21 table4 ext_noc ext_reorder)
for b in "${bins[@]}"; do
    echo "== $b"
    cargo run --offline --locked --release -q -p scalagraph-bench --bin "$b" > "$out/$b.txt"
done
echo "All experiment outputs written to $out/"
