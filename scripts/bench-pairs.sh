#!/bin/bash
# Paired end-to-end benchmark runs: a base revision against the working
# tree, on one workload and seed.
#
#   bash scripts/bench-pairs.sh <base-rev> [workload] [seed] [pairs]
#   make bench-pairs BASE=<rev> WORKLOAD=<name> SEED=<n> PAIRS=<n>
#
# The base revision is exported with `git archive` into a scratch
# directory: $BENCH_PAIRS_DIR/<commit> when BENCH_PAIRS_DIR is set (kept,
# and reused by the next call for the same commit), else a temporary
# directory removed on exit. Each pair runs `bash bench/run.sh --workload
# <workload> --seed <seed>` once in the base export and once in the
# working tree, the base first in odd pairs and the working tree first in
# even ones, so a drift in the host's speed falls on both sides alike.
#
# It prints every pair's end-to-end metrics with the ratio working tree ÷
# base, then, per metric, the median ratio, in how many pairs the working
# tree read lower, the base's quartiles and the working
# tree's median; and whether every pair's result_digest matched. A run
# that fails a correctness check stops the script.
set -euo pipefail
base=${1:?usage: bench-pairs.sh <base-rev> [workload] [seed] [pairs]}
workload=${2:-fig_grid_cold}
seed=${3:-1}
pairs=${4:-10}
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
if [ -n "${BENCH_PAIRS_DIR:-}" ]; then
	dir=$BENCH_PAIRS_DIR
	mkdir -p "$dir"
else
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
fi
if [ ! -d "$dir/$rev" ]; then
	mkdir "$dir/$rev.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$dir/$rev.tmp"
	mv "$dir/$rev.tmp" "$dir/$rev"
fi
runs=$(mktemp)
trap 'rm -f "$runs"; [ -n "${BENCH_PAIRS_DIR:-}" ] || rm -rf "$dir"' EXIT

# run <side> <checkout> <pair>: one benchmark run, appended to $runs as
# lines "<side> <pair> <name> <value>".
run() {
	local out
	out=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed")
	{
		echo "$1 $3 result_digest $(sed -n 's/^result_digest: //p' <<<"$out" | head -n 1)"
		tail -n 1 <<<"$out" | grep -o '"failed":[0-9]*' | tr -d '"' | tr ':' ' ' | sed "s/^/$1 $3 /"
		tail -n 1 <<<"$out" | grep -o '"[a-z0-9_.]*":{"value":[^,}]*' |
			sed -e 's/^"//' -e 's/":{"value":/ /' | sed "s/^/$1 $3 /"
	} >>"$runs"
}

echo "bench-pairs: base $rev vs working tree, workload $workload, seed $seed, $pairs pairs"
for ((k = 1; k <= pairs; k++)); do
	if ((k % 2)); then
		run base "$dir/$rev" "$k"
		run head "$root" "$k"
	else
		run head "$root" "$k"
		run base "$dir/$rev" "$k"
	fi
	awk -v k="$k" '$2 == k && $3 != "result_digest" && $3 != "failed" { v[$1, $3] = $4; if ($1 == "base") names[++n] = $3 }
		END {
			line = "pair " k (k % 2 ? " (base first):" : " (working tree first):")
			for (i = 1; i <= n; i++) {
				m = names[i]
				line = line sprintf(" %s %.4g -> %.4g (x%.3f)", m, v["base", m], v["head", m], v["head", m] / v["base", m])
			}
			print line
		}' "$runs"
done

awk '
	function median(a, n) { return quantile(a, n, 0.5) }
	# quantile sorts a[1..n] in place and returns its p-quantile,
	# interpolated between the two nearest ranks.
	function quantile(a, n, p,   i, j, t, pos) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
		pos = p * (n - 1) + 1
		i = int(pos)
		return i < n ? a[i] + (pos - i) * (a[i + 1] - a[i]) : a[n]
	}
	$3 == "result_digest" { d[$1, $2] = $4; next }
	$3 == "failed" { failed[$1] += $4; next }
	{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 } if ($2 > np) np = $2 }
	END {
		printf "\n%-18s %12s %10s %12s %12s %12s %12s\n", "metric", "median ratio", "lower in", "base q1", "base median", "base q3", "tree median"
		for (i = 1; i <= nm; i++) {
			m = names[i]; lower = 0
			for (k = 1; k <= np; k++) {
				r[k] = v["head", k, m] / v["base", k, m]
				b[k] = v["base", k, m]; h[k] = v["head", k, m]
				if (h[k] < b[k]) lower++
			}
			mr = median(r, np); q1 = quantile(b, np, 0.25); q3 = quantile(b, np, 0.75); bm = median(b, np)
			printf "%-18s %12.4f %10s %12.4g %12.4g %12.4g %12.4g\n", m, mr, lower "/" np, q1, bm, q3, median(h, np)
		}
		bad = 0
		for (k = 1; k <= np; k++) if (d["base", k] != d["head", k]) { bad++; print "pair " k ": result_digest differs: base " d["base", k] ", working tree " d["head", k] }
		print "result_digest: " (bad ? bad " of " np " pairs differ" : "equal in all " np " pairs (" (d["base", 1] == "" ? "none printed" : d["base", 1]) ")")
		print "failed operations: base " failed["base"] + 0 ", working tree " failed["head"] + 0
	}' "$runs"
