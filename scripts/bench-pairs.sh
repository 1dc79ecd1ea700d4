#!/usr/bin/env bash
# Paired end-to-end comparison of this checkout against a parent revision.
# Run it from anywhere inside the repository:
#
#   scripts/bench-pairs.sh PARENT_REV WORKLOAD PAIRS SECONDS [SEED]
#
# PARENT_REV is extracted with `git archive` into a temporary directory,
# removed on exit; the script writes nothing under .git. Each of PAIRS
# pairs runs `bash _psboxbench/run.sh --workload WORKLOAD --seed SEED
# --seconds SECONDS --trace 0` once from each tree; even pairs run the
# parent first, odd pairs the change, so drift in host load hits both
# sides alike. SEED defaults to 1. Every run's final JSON line is kept in
# parent.jsonl and change.jsonl under $BENCH_PAIRS_OUT (default: a fresh
# temporary directory, printed at the end).
#
# For each end_to_end metric of BENCHMARK.json the report gives the
# parent's and the change's median [q1, q3] and the pairs the change won
# and tied, judged by the metric's `better` direction; then the ops_failed
# totals. Quartiles interpolate linearly between order statistics. The
# script reads _psboxbench/ and BENCHMARK.json and writes to neither.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT_REV WORKLOAD PAIRS SECONDS [SEED]" >&2
	exit 2
fi
parent_rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
out=${BENCH_PAIRS_OUT:-$tmp}
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"
cleanup() {
	rm -rf "$tmp/parent"
	if [ "$out" != "$tmp" ]; then rm -rf "$tmp"; fi
}
trap cleanup EXIT
mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

# run SIDE TREE appends the run's final JSON line to SIDE.jsonl.
run() {
	(cd "$2" && bash _psboxbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) | tail -n 1 >>"$out/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
done

echo "workload=$workload seed=$seed pairs=$pairs seconds=$seconds parent=$(git rev-parse --short "$parent_rev")"
jq -n -r --slurpfile p "$out/parent.jsonl" --slurpfile c "$out/change.jsonl" \
	--slurpfile bench BENCHMARK.json '
	def r: (. * 1e6 | round) / 1e6;
	def q($f): sort as $x | ((($x | length) - 1) * $f) as $h | ($h | floor) as $i
		| if $i + 1 < ($x | length) then $x[$i] + ($h - $i) * ($x[$i + 1] - $x[$i]) else $x[$i] end;
	def stats: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)]";
	($bench[0].end_to_end[] as $m
		| [$p[].metrics[$m.name].value] as $pv
		| [$c[].metrics[$m.name].value] as $cv
		| [range(0; $pv | length)
			| if $cv[.] == $pv[.] then "tie"
			  elif ($cv[.] < $pv[.]) == ($m.better == "lower") then "win"
			  else "loss" end] as $o
		| "\($m.name) (\($m.unit), \($m.better) is better): parent \($pv | stats)  change \($cv | stats)  wins \([$o[] | select(. == "win")] | length)/\($pv | length) ties \([$o[] | select(. == "tie")] | length)"),
	"ops_failed: parent \([$p[].failed] | add) of \([$p[].attempted] | add), change \([$c[].failed] | add) of \([$c[].attempted] | add)"'
echo "runs: $out"
