#!/usr/bin/env bash
# The house rule "claim through bench/run.sh --compare with at least four
# alternating parent/change pairs" as one command:
#
#   scripts/bench-pairs.sh BASE_REV WORKLOAD N [SECONDS [FIRST_SEED]]
#
# Everything lands in .bench_build/pairs/WORKLOAD/seeds-F-L (F = FIRST_SEED,
# default 1; L = F+N-1), so a call for another workload or another seed
# range — a held-out seed after a claim's pairs, say — keeps the earlier
# calls' logs; only a call for the same workload and range replaces them.
# Exports BASE_REV into that directory's parent/ (git archive: a plain
# tree, nothing registered in .git), runs N pairs of
#   bash bench/run.sh --workload WORKLOAD --seed i --seconds SECONDS --out ...
# for seeds F..L — parent first on odd seeds, change first on even ones,
# each side from its own checkout so each builds its own source — and ends
# with --compare parent.json change.json against BENCHMARK.json narrowed to
# WORKLOAD. The exit status is the comparison's: non-zero only when an
# end-to-end metric is worse or unresolved.
# Run it on a quiet machine from the repository root, tree committed or not:
# the change side is the working tree.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 BASE_REV WORKLOAD N [SECONDS [FIRST_SEED]]" >&2; exit 2; }
base=$1 workload=$2 pairs=$3 seconds=${4:-20} first=${5:-1}
# With fewer than four runs a side the comparison cannot take the spread of a
# metric across runs, so it falls back to the widest within-run slice IQR: one
# noisy run then reads a short metric such as setup_s as "unresolved".
[[ $pairs =~ ^[0-9]+$ ]] && ((pairs >= 4)) || {
	echo "$0: N must be at least 4: with fewer runs a side, --compare judges a metric by the widest single-run slice IQR instead of the spread across runs" >&2
	exit 2
}
[[ $first =~ ^[0-9]+$ ]] || { echo "$0: FIRST_SEED must be a non-negative integer" >&2; exit 2; }
last=$((first + pairs - 1))
root="$(git rev-parse --show-toplevel)"
cd "$root"
out="$root/.bench_build/pairs/$workload/seeds-$first-$last"
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$base" | tar -x -C "$out/parent"
# The comparison judges only the workload that ran: the full definition
# would count every other one as missing from both files.
jq --arg w "$workload" '.workloads |= map(select(.name == $w))' BENCHMARK.json >"$out/benchmark.json"

run() { # run SIDE DIR SEED
	echo "== pair $3: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --out "$out/$1.json") >"$out/$1.$3.log"
	grep -E '^ +(setup_s|throughput_ops_s|cpu_us_per_op|sim_us_per_op) ' "$out/$1.$3.log" >&2 || true
}
for ((i = first; i <= last; i++)); do
	if ((i % 2)); then
		run parent "$out/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$out/parent" "$i"
	fi
done
bash bench/run.sh --compare --benchmark "$out/benchmark.json" "$out/parent.json" "$out/change.json"
