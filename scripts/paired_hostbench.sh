#!/usr/bin/env bash
# Paired host-time comparison of this tree against an earlier revision:
#
#   scripts/paired_hostbench.sh PARENT_REV WORKLOAD SEED PAIRS [SECONDS]
#   scripts/paired_hostbench.sh HEAD~1 variants-1800 1 10 30
#
# Exports PARENT_REV (git archive) next to a build of the working tree,
# builds both sides through hostbench/run.py into separate
# CARGO_TARGET_DIRs, then runs PAIRS pairs of `run.py --workload WORKLOAD
# --seed SEED --seconds SECONDS --trace 0` (SECONDS defaults to 30),
# alternating which side runs first. For each end-to-end metric of
# BENCHMARK.json it prints the parent's median [q1, q3], the change's
# median, their ratio (change / parent), the pairs the change won in the
# metric's own direction (ties count for neither side) and a verdict:
# `better` or `worse` when one side won at least nine tenths of the pairs
# and the medians differ by more than the parent's interquartile range,
# else `-`. Failed ops are counted per side; the exit status is 1 if a run
# or an op failed.
#
# The work directory holds the export, both builds and one JSON line per
# run. It is a fresh temporary directory, removed on exit, unless
# PAIRED_HOSTBENCH_DIR names one to keep and reuse (builds are then
# incremental). hostbench/ and BENCHMARK.json are only read.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_REV WORKLOAD SEED PAIRS [SECONDS]" >&2
  exit 2
}
[ $# -ge 4 ] && [ $# -le 5 ] || usage
parent_rev=$1
workload=$2
seed=$3
pairs=$4
seconds=${5:-30}
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

root=$(cd "$(dirname "$0")/.." && pwd)
parent_sha=$(git -C "$root" rev-parse --verify --quiet "${parent_rev}^{commit}") ||
  { echo "$0: unknown revision: $parent_rev" >&2; exit 2; }

if [ -n "${PAIRED_HOSTBENCH_DIR:-}" ]; then
  work=$PAIRED_HOSTBENCH_DIR
  mkdir -p "$work"
else
  work=$(mktemp -d "${TMPDIR:-/tmp}/paired_hostbench.XXXXXX")
  trap 'rm -rf "$work"' EXIT
fi
work=$(cd "$work" && pwd)

parent_src=$work/parent-$parent_sha
if [ ! -f "$parent_src/.exported" ]; then
  rm -rf "$parent_src"
  mkdir -p "$parent_src"
  git -C "$root" archive "$parent_sha" | tar -x -C "$parent_src"
  touch "$parent_src/.exported"
fi

results=$work/$workload.seed$seed.jsonl
: > "$results"

# run SIDE SOURCE_ROOT PAIR SECONDS: one hostbench run, its result line
# appended to $results as {"side", "pair", "status", "result"}.
run() {
  local side=$1 src=$2 pair=$3 secs=$4 out status=0
  out=$(cd "$src" && CARGO_TARGET_DIR="$work/build-$side" \
        python3 hostbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$secs" --trace 0 2>>"$work/build-$side.log") || status=$?
  local last
  last=$(printf '%s\n' "$out" | tail -n 1)
  case "$last" in '{'*) ;; *) last=null ;; esac
  printf '{"side": "%s", "pair": %d, "status": %d, "result": %s}\n' \
    "$side" "$pair" "$status" "$last" >> "$results"
  echo "pair $pair $side: exit $status" >&2
}

# Build both sides (and check that each runs) before any timed pair.
echo "building parent $parent_sha and the working tree in $work" >&2
run parent "$parent_src" 0 1
run change "$root" 0 1

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run parent "$parent_src" "$i" "$seconds"
    run change "$root" "$i" "$seconds"
  else
    run change "$root" "$i" "$seconds"
    run parent "$parent_src" "$i" "$seconds"
  fi
done

python3 - "$root/BENCHMARK.json" "$results" "$workload" "$seed" "$parent_sha" <<'EOF'
import json
import statistics
import sys

bench_path, results_path, workload, seed, parent = sys.argv[1:]
metrics = json.load(open(bench_path))["end_to_end"]
rows = [json.loads(line) for line in open(results_path)]
timed = [r for r in rows if r["pair"] > 0]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


ok = True
for side in ("parent", "change"):
    mine = [r for r in rows if r["side"] == side]
    bad = [r for r in mine if r["status"] != 0 or r["result"] is None
           or r["result"].get("failed", 0) != 0 or not r["result"].get("correct")]
    ops = sum((r["result"] or {}).get("attempted", 0) for r in mine)
    failed = sum((r["result"] or {}).get("failed", 0) for r in mine)
    print(f"{side}: {len(mine)} runs, {len(bad)} failed, {failed} of {ops} ops failed")
    ok = ok and not bad

by_pair = {}
for r in timed:
    if r["result"] is not None:
        by_pair.setdefault(r["pair"], {})[r["side"]] = {
            k: v["value"] for k, v in r["result"]["metrics"].items()}
complete = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]

print(f"\n{workload} seed {seed}: parent {parent[:12]} vs working tree, "
      f"{len(complete)} pairs")
print(f"{'metric':<22} {'parent median [q1, q3]':<34} {'change':>12} "
      f"{'ratio':>7} {'won':>7}  verdict")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    ps = [by_pair[p]["parent"][name] for p in complete if name in by_pair[p]["parent"]]
    cs = [by_pair[p]["change"][name] for p in complete if name in by_pair[p]["change"]]
    if not ps or len(ps) != len(cs):
        print(f"{name:<22} (missing)")
        continue
    q1, med, q3 = quartiles(ps)
    cmed = statistics.median(cs)
    won = sum(1 for p, c in zip(ps, cs) if (c > p if higher else c < p))
    lost = sum(1 for p, c in zip(ps, cs) if (c < p if higher else c > p))
    ratio = cmed / med if med else float("nan")
    apart = abs(cmed - med) > q3 - q1
    verdict = "-"
    if apart and won >= 0.9 * len(ps) and (cmed > med) == higher:
        verdict = "better"
    elif apart and lost >= 0.9 * len(ps) and (cmed < med) == higher:
        verdict = "worse"
    print(f"{name:<22} {f'{med:.4g} [{q1:.4g}, {q3:.4g}]':<34} {cmed:>12.4g} "
          f"{ratio:>7.3f} {f'{won}/{len(ps)}':>7}  {verdict}")
sys.exit(0 if ok else 1)
EOF
