#!/usr/bin/env bash
# Runs every figure and ablation binary and drops one CSV per bench into
# BENCH_RESULTS/. Defaults are the small-machine grid (DESIGN.md §2); pass
# larger sizes through to every figure via EXTRA_ARGS.
#
#   ./bench/run_all.sh                 # small grid, jiffy and cslm
#   ./bench/run_all.sh --quick         # CI-sized cells (short secs/entries)
#   EXTRA_ARGS="--entries=1000000 --seconds=2" ./bench/run_all.sh
#   BUILD_DIR=build-foo ./bench/run_all.sh
#   LIMIT_S=60 ./bench/run_all.sh      # per-invocation time limit (0: none)
#
# Every figure and ablation invocation runs under coreutils `timeout`. One
# that hits the limit (a hung cell) is recorded in $OUT_DIR/hung_<stamp>.txt
# with a warning on stderr, and the sweep goes on; any other failure stops
# it. The default limit is 600 s (a healthy default-grid invocation took
# 4-51 s on a 4-vCPU host) and 120 s under --quick.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-BENCH_RESULTS}
EXTRA_ARGS=${EXTRA_ARGS:-}
# Every index the harness runs. Narrow the sweep with INDICES=jiffy, not
# with an --index= in EXTRA_ARGS: that flag would follow, and so override,
# the per-index --index= below.
INDICES=${INDICES:-"jiffy cslm"}

for arg in "$@"; do
  case "$arg" in
    --quick)
      # Tiny cells so the whole CSV sweep fits in a CI job; prepended so an
      # explicit EXTRA_ARGS still wins (last flag parsed wins in the CLI).
      EXTRA_ARGS="--seconds=0.05 --warmup=0.05 --entries=4000 --threads=1,2 ${EXTRA_ARGS}"
      LIMIT_S=${LIMIT_S:-120}
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

LIMIT_S=${LIMIT_S:-600}
mkdir -p "$OUT_DIR"
stamp=$(date +%Y%m%d_%H%M%S)

# limited WHAT CMD...: run CMD under the time limit. A timeout (124, or 137
# once the grace KILL fires) is logged as hung and counts as success.
limited() {
  local what=$1 rc=0
  shift
  timeout --kill-after=10 "$LIMIT_S" "$@" || rc=$?
  if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "$what limit=${LIMIT_S}s" >> "$OUT_DIR/hung_${stamp}.txt"
    echo "warning: $what hit the ${LIMIT_S}s limit; recorded in $OUT_DIR/hung_${stamp}.txt" >&2
    return 0
  fi
  return "$rc"
}

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
    limited "figure=$fig index=$idx" "$BUILD_DIR/$fig" --index="$idx" --metrics="$metrics" $EXTRA_ARGS | { [ -s "$out" ] && tail -n +2 || cat; } >> "$out"
  done
done

for abl in ablation_clock ablation_revision_size; do
  out="$OUT_DIR/${abl}_${stamp}.csv"
  echo "== $abl -> $out"
  # shellcheck disable=SC2086
  limited "ablation=$abl" "$BUILD_DIR/$abl" $EXTRA_ARGS > "$out"
done

if [ -x "$BUILD_DIR/micro_components" ]; then
  out="$OUT_DIR/micro_components_${stamp}.csv"
  echo "== micro_components -> $out"
  "$BUILD_DIR/micro_components" --benchmark_format=csv > "$out"
fi

echo "done: $(ls "$OUT_DIR" | grep -c "$stamp") files in $OUT_DIR/"
