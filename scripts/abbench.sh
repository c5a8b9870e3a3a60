#!/usr/bin/env bash
# A/B runs of one perfbench workload: the tree committed at PARENT_REF
# against the one at HEAD, in alternating pairs, with a verdict for
# every end-to-end metric BENCHMARK.json declares. Run it from anywhere
# in the repository:
#
#   scripts/abbench.sh PARENT_REF WORKLOAD SEED PAIRS [SECONDS]
#   scripts/abbench.sh HEAD~1 serve 1 10 30
#
# Each side is exported with `git archive` into its own temporary
# directory, so only committed files run (as when the benchmark is run
# on a fresh checkout) and an interrupted run leaves nothing behind in
# the repository. There, each run is
#
#   bash perfbench/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# (SECONDS defaults to BENCHMARK.json's run_seconds). Pair i runs the
# parent first when i is odd and the change first when it is even. Each
# run prints its result line (perfbench's last line of output) and the
# host's steal ticks over the run, summed over CPUs from /proc/stat; a
# run without a correct result line is reported and left out of the
# statistics. Then, per metric: both medians, the parent's interquartile
# range (IQR), the pairs the change won (ties count for neither), the
# relative change of the median, and a verdict:
#
#   regressed   the change's median is worse than the parent's by more
#               than the metric's bound
#   gain        the change won at least 9 in 10 pairs and its median is
#               better than the parent's by more than the parent's IQR
#   unresolved  the parent's IQR, relative to its median, is wider than
#               the bound, and not every change run beats every parent run
#   within      none of these: no worse than the bound
#
# It needs git, python3 and the Go toolchain perfbench builds with, and
# removes its directories when it exits.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
	echo "usage: $0 PARENT_REF WORKLOAD SEED PAIRS [SECONDS]" >&2
	exit 2
fi
parent_ref=$1 workload=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
seconds=${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}

tmp=$(mktemp -d)
cleanup() {
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

for side in parent change; do
	ref=$parent_ref
	[[ $side == change ]] && ref=HEAD
	mkdir -p "$tmp/$side"
	git -C "$root" archive "$(git -C "$root" rev-parse --verify "$ref^{commit}")" | tar -x -C "$tmp/$side"
done
echo "# abbench parent=$(git -C "$root" rev-parse --short "$parent_ref") change=$(git -C "$root" rev-parse --short HEAD)" \
	"workload=$workload seed=$seed pairs=$pairs seconds=$seconds"

steal() { awk '$1 == "cpu" { print $9 + 0 }' /proc/stat 2>/dev/null || echo 0; }

runs=$tmp/runs.tsv
: >"$runs"
for ((pair = 1; pair <= pairs; pair++)); do
	order="parent change"
	((pair % 2 == 0)) && order="change parent"
	for side in $order; do
		out=$tmp/$pair-$side.out
		before=$(steal)
		(cd "$tmp/$side" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
			--seconds "$seconds" --trace 0) >"$out" 2>"$out.err" || true
		ticks=$(($(steal) - before))
		result=$(tail -n 1 "$out")
		printf '%s\t%s\t%s\t%s\n' "$pair" "$side" "$ticks" "$result" >>"$runs"
		printf 'pair %d %-6s steal=%-5d %s\n' "$pair" "$side" "$ticks" "$result"
	done
done

python3 - "$root/BENCHMARK.json" "$runs" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = {"parent": {}, "change": {}}
for line in open(sys.argv[2]):
    pair, side, _, result = line.rstrip("\n").split("\t", 3)
    try:
        res = json.loads(result)
    except ValueError:
        res = None
    if not res or not res.get("correct") or res.get("failed"):
        print(f"pair {pair} {side}: no correct result line; left out", file=sys.stderr)
        continue
    runs[side][int(pair)] = {k: v["value"] for k, v in res["metrics"].items()}

both = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"\n{len(both)} complete pairs")
print(f"{'metric':<16} {'parent':>12} {'parent_iqr':>11} {'change':>12} {'wins':>6} {'delta':>8} {'bound':>6}  verdict")
for m in bench["end_to_end"]:
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "higher" else -1
    p = [runs["parent"][i][name] for i in both]
    c = [runs["change"][i][name] for i in both]
    if not p:
        print(f"{name:<16} no data")
        continue
    mp, mc = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else (p[0], p[0], p[0])
    iqr = q3 - q1
    wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
    delta = (mc - mp) / abs(mp) if mp else float("inf")
    all_beat = all(sign * (cv - pv) > 0 for cv in c for pv in p)
    if -sign * delta > bound:
        verdict = "regressed"
    elif wins >= 0.9 * len(both) and sign * (mc - mp) > iqr:
        verdict = "gain"
    elif (iqr / abs(mp) if mp else float("inf")) > bound and not all_beat:
        verdict = "unresolved"
    else:
        verdict = "within"
    print(f"{name:<16} {mp:>12.5g} {iqr:>11.4g} {mc:>12.5g} {wins:>3}/{len(both):<2} {delta:>+8.1%} {bound:>6}  {verdict}")
PY
