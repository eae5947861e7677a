#!/usr/bin/env bash
# Tier-1 verification: configure, build, test, and static-check the tree
# under the default config and again under AddressSanitizer + UBSanitizer.
# Run from the repository root:
#
#   scripts/check.sh            # both configurations
#   scripts/check.sh default    # just the default build
#   scripts/check.sh asan-ubsan # just the sanitizer build
#   scripts/check.sh tsan       # ThreadSanitizer (tuner pool, obs registry,
#                               # the controller's helper thread)
#
# Each preset also runs `smdcheck --all` (the static verifier over every
# built-in kernel, stream program and blocking scheme — see DESIGN.md
# "Static checking"), `smdcheck --dataflow --all` (exact liveness
# pressure vs. the dynamic replay oracle) and `smdtune --paper --jobs 4`
# (the parallel design-space search reproducing the paper's tuned points
# — see EXPERIMENTS.md "Design-space exploration"); the default preset
# builds with -Werror (SMD_WERROR), builds hostbench/ and runs each of its
# workloads for one second. clang-tidy, when available, gates
# src/analysis and src/kernel (warnings as errors; escape hatch
# SMD_TIDY_NO_GATE=1) and advises on the rest of src/.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan)
fi

declare -A build_dir=([default]=build [asan-ubsan]=build-asan-ubsan [tsan]=build-tsan)

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}" -j "$(nproc)"
  if [ "${preset}" = default ] || [ "${preset}" = asan-ubsan ]; then
    # Engine equivalence gate (DESIGN.md section 10): the event-driven
    # simulation core must stay bit-identical to the cycle-stepped
    # reference -- randomized programs plus all four StreamMD variants in
    # lockstep. Part of the suite above; re-run standalone so a lockstep
    # divergence is named in the log even when other tests also fail.
    echo "==== lockstep engine cross-check (${preset}) ===="
    ctest --preset "${preset}" -R lockstep_test --output-on-failure
    # Memory-model gate (DESIGN.md section 10): both engines drive one
    # shared MemSystem, so lockstep cannot see a change inside it. The
    # golden digests (StreamMD runs and seeded op soups, recorded from the
    # per-cycle model) and mem_test's tick_until contract checks can.
    # Re-run standalone so a memory-model divergence is named in the log.
    echo "==== memory-model golden digests (${preset}) ===="
    ctest --preset "${preset}" -R '^(memsys_golden_test|mem_test)$' \
      --output-on-failure
    # Neighbor-list gate: md_test compares the cell-list builder with the
    # brute-force one bit for bit (offsets, neighbors, shift bit patterns)
    # from 64 to 7,200 molecules, at the cutoff and around the all-pairs
    # threshold; md_property_test holds the list invariants. Re-run
    # standalone so a neighbor-list divergence is named in the log.
    echo "==== neighbor list against brute force (${preset}) ===="
    ctest --preset "${preset}" -R '^(md_test|md_property_test)$' \
      --output-on-failure
    # Kernel-layer gate: the golden digests pin every built-in schedule
    # and the verifier's diagnostics; kernel_test checks the register
    # operand rule against the interpreter; analysis_test holds the
    # per-check diagnostic goldens. Re-run standalone so a schedule or
    # diagnostic divergence is named in the log.
    echo "==== kernel-layer golden digests (${preset}) ===="
    ctest --preset "${preset}" \
      -R '^(kernel_golden_test|kernel_test|analysis_test)$' --output-on-failure
    # Axis-table gate (DESIGN.md section 8): tune_test pins key(), label()
    # and to_json() of a fixed candidate list to strings recorded before
    # the axis table, round-trips every axis through text and JSON, and
    # holds the out-of-range and key-collision repros. Re-run standalone
    # so an axis-table divergence is named in the log.
    echo "==== tune axis table (${preset}) ===="
    ctest --preset "${preset}" -R '^tune_test$' --output-on-failure
  fi
  if [ "${preset}" = tsan ]; then
    # Every run applies its data effects on a helper thread of its own
    # (DESIGN.md section 10): the lockstep engine pairs two such runs and
    # controller_test drives the hand-off's error paths. Re-run both
    # standalone so a data race on the hand-off is named in the log.
    echo "==== controller helper thread under tsan ===="
    ctest --preset "${preset}" -R '^(lockstep_test|controller_test)$' \
      --output-on-failure
  fi
  # Kernel-backend equivalence gate (DESIGN.md section 17): the compiled
  # threaded-code VM must stay bit-identical to the reference interpreter
  # -- output words by bit pattern and every to_json(InterpStats) field
  # over every built-in kernel, the Table-3 variants under both SDR
  # policies in lockstep, and randomized programs with conditional/
  # broadcast transfers. Runs under EVERY preset: tsan included, because
  # the VM's executor cache sits on the multi-threaded tune/svc paths.
  echo "==== kernel VM equivalence sweep (${preset}) ===="
  ctest --preset "${preset}" -R vm_equivalence_test --output-on-failure
  # Flag contract (bench/bench_io.h check_flags): every bench and example
  # binary rejects a flag it does not read, and a stray positional, with
  # exit 2, before any work. bench_native_kernels hands its arguments to
  # google-benchmark, so it only has to fail. An unwritable --json or
  # --trace path also fails before any work: exit 1 (the path probe) or 2
  # (a flag the binary does not take), with nothing printed to stdout.
  echo "==== unknown flags, stray arguments and bad output paths (${preset}) ===="
  for exe in "${build_dir[${preset}]}"/bench/* "${build_dir[${preset}]}"/examples/*; do
    [ -f "${exe}" ] && [ -x "${exe}" ] || continue
    name=$(basename "${exe}")
    for arg in --frobnicate stray; do
      status=0
      "${exe}" "${arg}" > /dev/null 2>&1 || status=$?
      if [ "${name}" = bench_native_kernels ]; then
        [ "${status}" -ne 0 ] || { echo "${name} accepted ${arg}"; exit 1; }
      elif [ "${status}" -ne 2 ]; then
        echo "${name} ${arg} exited ${status}, want 2"
        exit 1
      fi
    done
    for flag in --json --trace; do
      status=0
      out=$("${exe}" "${flag}" /nonexistent-dir/x.json 2>/dev/null) || status=$?
      if { [ "${status}" -ne 1 ] && [ "${status}" -ne 2 ]; } || [ -n "${out}" ]; then
        echo "${name} ${flag} /nonexistent-dir/x.json exited ${status}" \
          "after ${#out} bytes of stdout, want 1 or 2 before any output"
        exit 1
      fi
    done
  done
  echo "==== smdcheck --all (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdcheck" --all
  echo "==== smdcheck --dataflow --all (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdcheck" --dataflow --all
  echo "==== smdtune --paper --jobs 4 (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdtune" --paper --jobs 4 --molecules 256
  # Run sharing (DESIGN.md section 8): expanded and variable do not read
  # L, so their L=8 rows copy the L=4 runs. The copies are made after the
  # pool joins, so the report must not depend on --jobs, and the summary
  # line must count shared results. Under every preset: tsan included,
  # because the fan-out sits on the pool's path.
  echo "==== smdtune --sweep run sharing, --jobs 1 vs 4 (${preset}) ===="
  share_dir="${build_dir[${preset}]}/tune-share"
  mkdir -p "${share_dir}"
  for jobs in 1 4; do
    "${build_dir[${preset}]}/examples/smdtune" \
      --sweep "variant=expanded,fixed,variable;L=4,8;unroll=1" \
      --molecules 64 --jobs "${jobs}" --json "${share_dir}/jobs${jobs}.json" \
      > "${share_dir}/jobs${jobs}.txt"
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${share_dir}" <<'PYEOF'
import json, re, sys
d = sys.argv[1]
runs = [json.load(open(f"{d}/jobs{j}.json")) for j in (1, 4)]
for key in ("results", "pareto_front", "best"):
    assert runs[0][key] == runs[1][key], f"--jobs 1 and 4 differ in {key}"
for j in (1, 4):
    m = re.search(r"(\d+) simulated, (\d+) shared", open(f"{d}/jobs{j}.txt").read())
    assert m and int(m.group(2)) > 0, f"--jobs {j}: no shared results"
print(f"run sharing: {m.group(1)} simulated, {m.group(2)} shared; "
      "--jobs 1 and 4 reports identical")
PYEOF
  fi
  # Service smoke + property suite (DESIGN.md section 13): payload
  # byte-identity vs. a direct single-threaded run, exactly one
  # simulation per unique config, zero simulations on resubmission, and
  # counter conservation under a randomized cancel/deadline/queue-full
  # mix. Runs under every preset -- under tsan this is the data-race
  # gate for the whole svc worker pool.
  echo "==== smdserve --demo (${preset}) ===="
  "${build_dir[${preset}]}/examples/smdserve" --demo --molecules 64 --workers 4
  # Telemetry smoke (DESIGN.md section 15): the same demo with the full
  # tracing surface on. smdserve re-parses its own artifacts at exit --
  # span trees must partition every request exactly in both the Chrome
  # trace and the JSONL event log, and periodic stats snapshots must
  # land -- so a non-zero exit means the tracing pipeline broke.
  echo "==== smdserve --demo + tracing (${preset}) ===="
  telemetry_dir="${build_dir[${preset}]}/telemetry-smoke"
  mkdir -p "${telemetry_dir}"
  "${build_dir[${preset}]}/examples/smdserve" --demo --molecules 24 --workers 2 \
    --trace "${telemetry_dir}/trace.json" \
    --events "${telemetry_dir}/events.jsonl" \
    --stats-interval 20
  # The artifacts must also be valid JSON to an outside parser.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${telemetry_dir}" <<'PYEOF'
import json, sys
d = sys.argv[1]
doc = json.load(open(d + "/trace.json"))
assert any(e.get("ph") == "X" and "span" in e.get("args", {})
           for e in doc["traceEvents"]), "no span slices in trace"
lines = [json.loads(l) for l in open(d + "/events.jsonl") if l.strip()]
kinds = {l["type"] for l in lines}
assert "span" in kinds and "stats" in kinds, f"event log kinds: {kinds}"
print(f"telemetry artifacts parse back: {len(doc['traceEvents'])} trace "
      f"events, {len(lines)} event-log lines")
PYEOF
  fi
  # Observability + service suites (DESIGN.md section 15): histogram
  # quantile bound, span partition property, event-log torn-line
  # tolerance, exporter cadence. Under every preset -- tsan is the
  # data-race gate for the svc pool, the histograms and the span log.
  echo "==== obs suite (${preset}) ===="
  ctest --preset "${preset}" -R obs_test --output-on-failure
  echo "==== svc property suite (${preset}) ===="
  ctest --preset "${preset}" -R svc_test --output-on-failure
  if [ "${preset}" = default ] || [ "${preset}" = asan-ubsan ]; then
    # Multi-node decomposition self-check (DESIGN.md section 11): the
    # parallel taxonomy must sum exactly to total node-time at every node
    # count, and every per-node ledger must tile the step.
    echo "==== smdprof --scaling (${preset}) ===="
    "${build_dir[${preset}]}/examples/smdprof" --scaling --molecules 256
    # Benchmark-regression gate (see EXPERIMENTS.md "Profiling and
    # regression tracking"): on the first ever run record the baseline;
    # afterwards fail on any difference from the committed file. Under the
    # sanitizers too: it runs the memory model's tick loop on the
    # 900-molecule paper workload.
    if [ -f BENCH_baseline.json ]; then
      echo "==== smdprof --check-baseline (${preset}) ===="
      "${build_dir[${preset}]}/examples/smdprof" --check-baseline BENCH_baseline.json
    else
      echo "==== smdprof --record-baseline (first run) ===="
      "${build_dir[${preset}]}/examples/smdprof" --record-baseline BENCH_baseline.json
    fi
    # A 128-bank cache (cache_gbps=1024) has more banks than one 64-bit
    # word of the memory model's active-bank set; every candidate must
    # simulate (exit 0, no error row).
    echo "==== smdtune 128-bank sweep (${preset}) ===="
    sweep=$("${build_dir[${preset}]}/examples/smdtune" \
      --sweep "variant=variable,duplicated;cache_gbps=1024" --molecules 64)
    echo "${sweep}"
    if echo "${sweep}" | grep -qw error; then
      echo "128-bank sweep printed an error row"
      exit 1
    fi
  fi
  if [ "${preset}" = default ]; then
    # Kernel-backend scoreboard (EXPERIMENTS.md "Interpreter vs. compiled
    # VM"): per built-in kernel, the VM must be bit-identical AND strictly
    # faster than the interpreter; either violation exits non-zero.
    echo "==== bench_native_kernels --selfcheck (${preset}) ===="
    "${build_dir[${preset}]}/bench/bench_native_kernels" --selfcheck
    # Host-time benchmark smoke (hostbench/README.md, gated by
    # BENCHMARK.json): hostbench is its own CMake package over src/ and
    # calls sim::KernelCostCache, tune::Runner and svc::Server directly, so
    # a src/ change that breaks its build or its correctness checks fails
    # here rather than in the post-merge benchmark run. One second per
    # workload; run.py builds into $CARGO_TARGET_DIR/hostbench (default
    # .bench_build/hostbench).
    if command -v python3 >/dev/null 2>&1; then
      for workload in variants-1800 svc-mixed-32 tune-sweep-256; do
        echo "==== hostbench ${workload} (${preset}) ===="
        python3 hostbench/run.py --workload "${workload}" --seed 1 \
          --seconds 1 --trace 0
      done
    fi
  fi
done

if command -v clang-tidy >/dev/null 2>&1; then
  tidy_build=${build_dir[${presets[0]}]}
  if [ ! -f "${tidy_build}/compile_commands.json" ]; then
    cmake --preset "${presets[0]}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  fi
  # Gating lint over the static-analysis surface itself: src/analysis and
  # src/kernel must be clean under the pinned .clang-tidy check set, with
  # every warning promoted to an error. Escape hatch (emergencies or
  # clang-tidy version skew only — fix the findings, don't live with it):
  #
  #   SMD_TIDY_NO_GATE=1 scripts/check.sh   # demote the gate to advisory
  echo "==== clang-tidy (gating: src/analysis src/kernel) ===="
  if [ "${SMD_TIDY_NO_GATE:-0}" = 1 ]; then
    echo "(SMD_TIDY_NO_GATE=1: gate demoted to advisory)"
    find src/analysis src/kernel -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "${tidy_build}" --quiet || true
  else
    find src/analysis src/kernel -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "${tidy_build}" --quiet \
        --warnings-as-errors='*'
  fi
  echo "==== clang-tidy (advisory: rest of src/) ===="
  find src -path src/analysis -prune -o -path src/kernel -prune -o \
      -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "${tidy_build}" --quiet
else
  echo "==== clang-tidy not found; skipping lint ===="
fi
echo "==== all checks passed ===="
