#!/bin/sh
# Compare simulate's four artifacts, and the stdout and exit code of estimate
# and check-bounds, between a base commit and this checkout.
#
#   .github/artifact-identity.sh BASE_SHA [TRIALS]
#
# Run from the root of a git checkout that has BASE_SHA.  The base is checked
# out as a temporary worktree.  fig2a, fig2b and plus_refit run in both trees
# at --jobs 1 and 2 with the same --out (summary.json echoes it), using copies
# of this checkout's configs with trials set to TRIALS (default: as shipped).
# estimate runs on two small configs at two seeds, and check-bounds on a d=2,
# a d=3, a vacuous (--d 400) and an overflowing (--C1 1e308) input.
# Prints one ::warning:: per output that differs or run that fails, then a
# count for each kind; always exits 0.
set -u
base=$1
trials=${2:-}
head=$(pwd)
tmp=$(mktemp -d)
git worktree add --detach "$tmp/base-tree" "$base" > /dev/null 2>&1 || {
  echo "::warning title=artifact identity::cannot check out $base"
  exit 0
}
same=0
total=0
for cfg in configs/fig2a.json configs/fig2b.json perfbench/workloads/plus_refit.json; do
  name=$(basename "$cfg" .json)
  python3 - "$cfg" "$tmp/$name.json" "$trials" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))
if sys.argv[3]:
    cfg["trials"] = int(sys.argv[3])
json.dump(cfg, open(sys.argv[2], "w"))
EOF
  for jobs in 1 2; do
    for side in base head; do
      tree=$([ "$side" = base ] && echo "$tmp/base-tree" || echo "$head")
      rm -rf "$tmp/out" "$tmp/$side"
      PYTHONPATH="$tree/src" python3 -m relu_bandits.cli simulate \
        --config "$tmp/$name.json" --out "$tmp/out" --jobs "$jobs" > /dev/null 2> "$tmp/err" ||
        echo "::warning title=artifact identity::$name --jobs $jobs failed on $side: $(tail -n 1 "$tmp/err")"
      mv "$tmp/out" "$tmp/$side" 2> /dev/null || mkdir "$tmp/$side"
    done
    for f in traces.csv aggregate.csv regret.svg summary.json; do
      total=$((total + 1))
      if cmp -s "$tmp/base/$f" "$tmp/head/$f"; then
        same=$((same + 1))
      else
        echo "::warning title=artifact identity::$name --jobs $jobs: $f differs from $base"
      fi
    done
  done
done
echo "$same of $total artifacts byte-identical to $base"

echo '{"k": 2, "d": 3, "sample_sizes": [20, 100]}' > "$tmp/est-a.json"
echo '{"k": 3, "d": 2, "alpha0": 0.5, "sigma": 0.2, "sample_sizes": [50, 200]}' > "$tmp/est-b.json"
same=0
total=0
compare() {  # a name for the warning, then the CLI arguments
  what=$1
  shift
  for side in base head; do
    tree=$([ "$side" = base ] && echo "$tmp/base-tree" || echo "$head")
    PYTHONPATH="$tree/src" python3 -m relu_bandits.cli "$@" > "$tmp/$side.out" 2> /dev/null
    echo "exit $?" >> "$tmp/$side.out"
  done
  total=$((total + 1))
  if cmp -s "$tmp/base.out" "$tmp/head.out"; then
    same=$((same + 1))
  else
    echo "::warning title=diagnostic identity::$what: stdout or exit code differs from $base"
  fi
}
for est in est-a est-b; do
  for seed in 1 2; do
    compare "estimate $est --seed $seed" estimate --config "$tmp/$est.json" --seed "$seed"
  done
done
compare "check-bounds d=2" check-bounds --k 3 --d 2
compare "check-bounds d=3" check-bounds --k 2 --d 3 --sigma 0.1 --nu 0.2 --n 500
compare "check-bounds --d 400" check-bounds --k 3 --d 400
compare "check-bounds --C1 1e308" check-bounds --k 3 --d 2 --C1 1e308
echo "$same of $total estimate and check-bounds outputs identical to $base"
git worktree remove --force "$tmp/base-tree"
rm -rf "$tmp"
