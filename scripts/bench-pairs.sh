#!/usr/bin/env bash
# The house rule "claim through bench/run.sh --compare with at least three
# alternating parent/change pairs" as one command:
#
#   scripts/bench-pairs.sh BASE_REV WORKLOAD N [SECONDS]
#
# Exports BASE_REV into .bench_build/pairs/parent (git archive: a plain
# tree, nothing registered in .git), runs N pairs of
#   bash bench/run.sh --workload WORKLOAD --seed i --seconds SECONDS --out ...
# for seeds 1..N — parent first on odd seeds, change first on even ones,
# each side from its own checkout so each builds its own source — and ends
# with --compare parent.json change.json. The exit status is the
# comparison's (non-zero when an end-to-end metric is worse).
# Run it on a quiet machine from the repository root, tree committed or not:
# the change side is the working tree.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 BASE_REV WORKLOAD N [SECONDS]" >&2; exit 2; }
base=$1 workload=$2 pairs=$3 seconds=${4:-20}
root="$(git rev-parse --show-toplevel)"
cd "$root"
out="$root/.bench_build/pairs"
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$base" | tar -x -C "$out/parent"

run() { # run SIDE DIR SEED
	echo "== pair $3: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --out "$out/$1.json") >"$out/$1.$3.log"
	grep -E '^ +(throughput_ops_s|cpu_us_per_op|sim_us_per_op) ' "$out/$1.$3.log" >&2 || true
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$out/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$out/parent" "$i"
	fi
done
bash bench/run.sh --compare "$out/parent.json" "$out/change.json"
