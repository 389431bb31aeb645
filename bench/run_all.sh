#!/usr/bin/env bash
# Runs every figure and ablation binary and drops one CSV per bench into
# BENCH_RESULTS/. Defaults are the small-machine grid (DESIGN.md §2); pass
# --paper through to any figure via EXTRA_ARGS.
#
#   ./bench/run_all.sh                 # small grid, native indices only
#   ./bench/run_all.sh --quick         # CI-sized cells (short secs/entries)
#   EXTRA_ARGS="--paper" ./bench/run_all.sh
#   BUILD_DIR=build-foo ./bench/run_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-BENCH_RESULTS}
EXTRA_ARGS=${EXTRA_ARGS:-}
# Stub adapters (see baselines/registry.h) measure a locked std::map, not
# the paper's baselines; sweep only the native indices unless overridden.
INDICES=${INDICES:-"jiffy cslm"}

for arg in "$@"; do
  case "$arg" in
    --quick)
      # Tiny cells so the whole CSV sweep fits in a CI job; prepended so an
      # explicit EXTRA_ARGS still wins (last flag parsed wins in the CLI).
      EXTRA_ARGS="--seconds=0.05 --warmup=0.05 --entries=4000 --threads=1,2 ${EXTRA_ARGS}"
      ;;
    *)
      echo "unknown flag: $arg (supported: --quick)" >&2
      exit 2
      ;;
  esac
done

if [ ! -x "$BUILD_DIR/fig6_uniform_4_4" ]; then
  echo "building into $BUILD_DIR ..."
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j >/dev/null
fi

mkdir -p "$OUT_DIR"
stamp=$(date +%Y%m%d_%H%M%S)

for fig in fig5_uniform_16_100 fig6_uniform_4_4 fig8_zipf_16_100 fig10_zipf_4_4; do
  out="$OUT_DIR/${fig}_${stamp}.csv"
  echo "== $fig -> $out"
  : > "$out"
  for idx in $INDICES; do
    # One metrics dump per (figure, index) invocation: the harness writes
    # the whole file at exit, so sharing a path across runs would clobber.
    # check_scaling.py --metrics= accepts the flag repeatedly; glob them.
    metrics="$OUT_DIR/${fig}_${idx}_${stamp}.metrics.json"
    # shellcheck disable=SC2086
    "$BUILD_DIR/$fig" --index="$idx" --metrics="$metrics" $EXTRA_ARGS | { [ -s "$out" ] && tail -n +2 || cat; } >> "$out"
  done
done

for abl in ablation_clock ablation_revision_size; do
  out="$OUT_DIR/${abl}_${stamp}.csv"
  echo "== $abl -> $out"
  # shellcheck disable=SC2086
  "$BUILD_DIR/$abl" $EXTRA_ARGS > "$out"
done

if [ -x "$BUILD_DIR/micro_components" ]; then
  out="$OUT_DIR/micro_components_${stamp}.csv"
  echo "== micro_components -> $out"
  "$BUILD_DIR/micro_components" --benchmark_format=csv > "$out"
fi

echo "done: $(ls "$OUT_DIR" | grep -c "$stamp") files in $OUT_DIR/"
