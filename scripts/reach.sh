#!/usr/bin/env bash
# Reachability audit (make reach): which non-test functions does no
# experiment run?
#
# Builds the five experiment CLIs and the four examples with coverage
# over every package, runs the -fast experiments with observers off
# (spec -all, figures -fig 2/3 and -sensitivity, ablate -sweep all, and
# make results' four vgrun runs), then one small leg with each observer
# or output switch on, then the examples. It folds the coverage per
# function and fails when a function no run reached is missing from
# scripts/reach_allow.txt, or when an allowlist entry names a function
# that a run reached or that no longer exists.
#
# Usage: bash scripts/reach.sh   (about 4.5 minutes on 2 vCPUs)
set -euo pipefail
export LC_ALL=C
GO=${GO:-go}
cd "$(dirname "$0")/.."
allow=scripts/reach_allow.txt
work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
bin=$work/bin out=$work/out cache="-cache-dir $work/cache"
mkdir -p "$bin" "$out" "$work/cov"
export GOCOVERDIR=$work/cov

$GO build -cover -coverpkg=./... -o "$bin" ./cmd/spec ./cmd/figures ./cmd/ablate ./cmd/vgrun ./cmd/vanguard \
	./examples/quickstart ./examples/omnetpp ./examples/sensitivity ./examples/hammock

# run CMD ARGS... runs one CLI on the audit's own run cache with its
# output in $out/log, failing the audit (and showing the log) if the
# CLI fails.
run() {
	"$bin/$1" $cache "${@:2}" >"$out/log" 2>&1 || { cat "$out/log"; echo "reach: $* failed"; exit 1; }
}

# The experiments, observers off, sharing one run cache.
run spec -fast -all -json "$out/spec.json" -csv "$out/spec.csv" -report "$out/spec.md" -plot
run figures -fast -fig 2
run figures -fast -fig 3
run figures -fast -sensitivity
run ablate -fast -sweep all -json "$out/ablate.json"
for leg in dotproduct:2 dotproduct:4 dotproduct:8 sparse:4; do
	prog=${leg%%:*} w=${leg#*:}
	run vgrun -no-hists -no-cache -width $w -json "$out/${prog}_w$w.json" -transform examples/asm/$prog.s
done

# One small leg per observer switch, on a transformable assembly
# program or one benchmark (mcf) the experiments already cached.
asm=examples/asm/sparse.s
# -attr
run vgrun -attr -bpred-report -transform $asm
run vgrun -attr-diff -attr-csv "$out/ad" $asm
run figures -fast -cpistack mcf -attr-csv "$out/cs"
# -bpred-report, on the default predictor and on one rung of each other
# predictor type
run figures -fast -cpistack mcf -bpred-report -bpred-csv "$out/cb.csv" -attr-csv "$out/cj"
run vanguard -bench mcf -iters 2000 -attr -bpred-report -bpred-csv "$out/bp.csv"
for rung in gshare-4KB tage-27KB isl-tage-64KB; do
	run vanguard -bench mcf -iters 2000 -predictor $rung -bpred-report
done
# -pipeview
run vgrun -pipeview -attr -konata "$out/konata.txt" -json "$out/pv.json" -transform $asm
run vgrun -pipeview-around 3 -transform $asm
run spec -fast -table 2 -pipeview mcf -json "$out/spv.json"
# -sample-window
run vgrun -sample-window 500 -attr -json "$out/sw.json" -transform $asm
run figures -samples "$out/sw.json"
run figures -samples "$out/sw.json" -plot
# -sweep-chrome
run ablate -fast -sweep slice -sweep-chrome "$out/sc.json" -sweep-trace "$out/st.json"

# -listen: serve the monitor during a run long enough to query every
# endpoint. The run's stderr carries the bound address.
"$bin/vanguard" $cache -no-cache -bench gcc -iters 20000 -listen 127.0.0.1:0 -progress -bpred-report -attr >"$out/listen.log" 2>&1 &
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's|.*monitor listening on http://\([^ ]*\).*|\1|p' "$out/listen.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { cat "$out/listen.log"; echo "reach: -listen printed no address"; exit 1; }
for path in /progress /metrics /healthz /debug/sweep /debug/bpred; do
	curl -sf "http://$addr$path" >/dev/null || { echo "reach: GET $path failed"; exit 1; }
done
wait $! || { cat "$out/listen.log"; echo "reach: vanguard -listen failed"; exit 1; }

# The other vgrun, figures and vanguard surfaces.
run vgrun -trace -transform $asm
run vgrun -trace-all -chrome-trace "$out/chrome.json" -pipeview -transform $asm
run vgrun -dump -transform $asm
run figures -fast -fig 2 -plot
run vanguard -bench mcf -dump
run vanguard -list

# The examples take no flags.
for ex in quickstart omnetpp sensitivity hammock; do
	"$bin/$ex" >"$out/log" 2>&1 || { cat "$out/log"; echo "reach: $ex failed"; exit 1; }
done

# Fold the coverage: one line per function no run reached, keyed by
# file and name ((*Recv).Name for a method).
$GO tool covdata textfmt -i="$work/cov" -o "$work/cov.txt"
$GO tool cover -func="$work/cov.txt" | while read -r loc name pct; do
	[ "$pct" = 0.0% ] || continue
	file=${loc%%:*} file=${file#vanguard/} line=${loc#*:} line=${line%%:*}
	recv=$(sed -n "${line}s/^func (\([[:alnum:]_]* \)\{0,1\}\(\*\{0,1\}[[:alnum:]_]*\)[^)]*).*/\2/p" "$file")
	case $recv in
	\**) name="($recv).$name" ;;
	?*) name="$recv.$name" ;;
	esac
	echo "$file $name"
done | sort -u >"$work/unreached"

# Every allowlist entry is "file function reason", the reason starting
# with one of the four accepted kinds.
bad=0
grep -v -e '^#' -e '^$' "$allow" >"$work/entries" || true
while read -r file name reason; do
	case $reason in
	"test oracle: "* | "CLI-only path: "* | "error path: "* | "Section 4 model: "*) ;;
	*) echo "reach: $file $name: reason must start with test oracle:, CLI-only path:, error path: or Section 4 model:"; bad=1 ;;
	esac
done <"$work/entries"
awk '{print $1, $2}' "$work/entries" | sort >"$work/allowed"
if [ -n "$(uniq -d "$work/allowed")" ]; then
	echo "reach: allowlist entries listed twice:"; uniq -d "$work/allowed"; bad=1
fi
new=$(comm -23 "$work/unreached" "$work/allowed")
stale=$(comm -13 "$work/unreached" "$work/allowed")
if [ -n "$new" ]; then
	echo "reach: no run reached these functions; delete them or allowlist them with a reason in $allow:"
	echo "$new"; bad=1
fi
if [ -n "$stale" ]; then
	echo "reach: these allowlist entries are reached or no longer exist; remove them from $allow:"
	echo "$stale"; bad=1
fi
[ $bad -eq 0 ] || exit 1
echo "reach: $(wc -l <"$work/unreached") unreached functions, each allowlisted; $($GO tool cover -func="$work/cov.txt" | tail -1 | awk '{print $NF}') of statements ran"
