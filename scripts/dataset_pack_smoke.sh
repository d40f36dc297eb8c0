#!/usr/bin/env bash
# Dataset-pack smoke: the full packed-graph pipeline end to end.
#
#   1. Parallel-generate a mid-scale dataset stand-in and pack it into the
#      delta+varint container (`scalagraph-sim graph pack`).
#   2. Open and decode the container, then print its header (`graph info`):
#      this exercises the reader's checks (magic, version, checksum, index
#      and every block).
#   3. Replay a conformance corpus scenario with `--packed`, which re-runs
#      the scenario with its graph written to a packed file and read back,
#      and fails unless the replayed report is bit-identical to the run on
#      the generated graph.
#   4. Pack PK at scale 512 and run `scalagraph-sim --csr` on the file; its
#      stdout must be byte-identical to the run on `--graph PK --scale 512`.
#   5. Re-measure the dataset benchmarks with one generation thread, the
#      count BENCH_datasets.json records, and gate against that file
#      (another thread count, pack ratio >10% worse, or gen/cold-open
#      speedups below half their recorded values, fail the job).
#
# Usage: scripts/dataset_pack_smoke.sh [--skip-bench]
#   --skip-bench  run only the pack/info/replay/--csr smoke (fast path)
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_BENCH=0
for a in "$@"; do
  case "$a" in
    --skip-bench) SKIP_BENCH=1 ;;
    *) echo "unknown flag: $a" >&2; exit 2 ;;
  esac
done

SIM=(cargo run --offline --locked --release --bin scalagraph-sim --)
WORK=$(mktemp -d -t scalagraph-smoke-XXXXXX)
trap 'rm -rf "$WORK"' EXIT
CONTAINER="$WORK/pk4.sgpk"

echo "== pack: Pokec/4 (parallel generation -> packed container) =="
"${SIM[@]}" graph pack --graph PK --scale 4 --seed 42 --out "$CONTAINER"

echo "== info: open, decode and describe the container =="
"${SIM[@]}" graph info "$CONTAINER"

echo "== replay: corpus scenario read from a packed file must be bit-identical =="
"${SIM[@]}" replay --packed corpus/converge-pagerank-dense.json

echo "== --csr: a run on a packed file must print the generated run's bytes =="
"${SIM[@]}" graph pack --graph PK --scale 512 --seed 42 --out "$WORK/pk512.sgpk"
"${SIM[@]}" --csr "$WORK/pk512.sgpk" > "$WORK/from-file.txt"
"${SIM[@]}" --graph PK --scale 512 --seed 42 > "$WORK/generated.txt"
cmp "$WORK/generated.txt" "$WORK/from-file.txt"

if [ "$SKIP_BENCH" = 0 ]; then
  echo "== bench: regression gates vs checked-in BENCH_datasets.json =="
  SCALAGRAPH_THREADS=1 cargo run --offline --locked --release -p scalagraph-bench \
    --bin bench_datasets -- --out BENCH_datasets.ci.json --check BENCH_datasets.json
fi

echo "dataset-pack smoke: OK"
