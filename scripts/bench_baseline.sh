#!/usr/bin/env bash
# Record (or refresh) the committed benchmark baseline. Run from the
# repository root after an intentional performance change:
#
#   scripts/bench_baseline.sh              # writes BENCH_baseline.json
#   scripts/bench_baseline.sh --check      # compare instead of record
#
# The simulator is deterministic, so the recorded metrics are byte-stable:
# re-recording on an unchanged tree, under any preset, produces an
# identical file. scripts/check.sh and the `smdprof_baseline` ctest fail
# on any difference from it, improvements included, so commit the
# re-recorded BENCH_baseline.json together with the change that moved the
# numbers on purpose. A file of another schema version is rejected; this
# script writes the current one.
#
# The file also pins the multi-node scaling decomposition (one
# "p=<nodes>" entry per node count of the default sweep: step time,
# compute/communication/serialization/imbalance node-time buckets,
# parallel efficiency, imbalance ratio, halo fraction).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
BUILD=build

if [ ! -x "${BUILD}/examples/smdprof" ] ||
   [ ! -x "${BUILD}/bench/bench_svc_load" ] ||
   [ ! -x "${BUILD}/bench/bench_native_kernels" ]; then
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target smdprof bench_svc_load bench_native_kernels
fi

if [ "${1:-}" = "--check" ]; then
  exec "${BUILD}/examples/smdprof" --check-baseline "${BASELINE}"
fi

"${BUILD}/examples/smdprof" --record-baseline "${BASELINE}"
# Sanity: the decomposition the file now pins must pass its own
# sum-to-total self-check before we ask anyone to commit it.
"${BUILD}/examples/smdprof" --scaling --molecules 256 >/dev/null
# Serving-path sanity (exit non-zero on any violation): the load bench's
# own invariants -- one simulation per unique config and payload
# byte-identity across worker counts -- at a reduced request count. The
# full 1000-request regime table lives in EXPERIMENTS.md.
"${BUILD}/bench/bench_svc_load" --requests 120 --molecules 16 \
  --workers 1,4 >/dev/null
# Kernel-backend sanity (exit non-zero on any violation): the compiled VM
# must be bit-identical to and strictly faster than the interpreter on
# every built-in kernel. The baseline file pins each variant's compiled
# program size as kernel_vm_ops.
"${BUILD}/bench/bench_native_kernels" --selfcheck >/dev/null
echo "refreshed ${BASELINE}; review the diff and commit it with your change"
git --no-pager diff --stat -- "${BASELINE}" || true
