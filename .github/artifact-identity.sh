#!/bin/sh
# Compare simulate's four artifacts, and the stdout and exit code of estimate,
# between a base commit and this checkout.
#
#   .github/artifact-identity.sh BASE_SHA [TRIALS]
#
# Run from the root of a git checkout that has BASE_SHA.  The base is checked
# out as a temporary worktree.  fig2a, fig2b and plus_refit run in both trees
# at --jobs 1 and 2 with the same --out (summary.json echoes it), using copies
# of this checkout's configs with trials set to TRIALS (default: as shipped).
# So does a fig2a-shape OFU-ReLU+ config on the theoretical exploration
# schedule, which no shipped config runs: one block whose small C1 and C2 give
# non-empty windows, and the default block, which never fits; beside them run
# an all-default OFUL and OFU-ReLU block (name only), so that a default that
# moves shows as an artifact difference.
# estimate runs on two small configs at two seeds.  Last, simulate and
# estimate run on twenty-seven configs that each break one checked input: seven
# by a finite value whose bound or batch-grid arithmetic leaves the float
# range, nine by a JSON value that is not a number in the float range of the
# asked kind (a float for an integer, a string, a bool, NaN, Infinity or an
# integer beyond the largest float), and one by a JSON integer of 4,401
# digits, more than Python converts; their stdout (empty) and exit code (2)
# must match, while stderr, the message, may change.
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
mkdir "$tmp/inline"
python3 - configs/fig2a.json "$tmp/inline/plus_schedule.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))
cfg["algorithms"] = [
    {"name": "ofu_relu_plus", "label": "plus_schedule", "nu0": 0.5, "C1": 4e-9, "C2": 1e-9},
    {"name": "ofu_relu_plus", "label": "plus_default"},
    {"name": "oful"},
    {"name": "ofu_relu"},
]
json.dump(cfg, open(sys.argv[2], "w"))
EOF
simulate_identity() {  # the config paths; sets same and total
  same=0
  total=0
  for cfg in "$@"; do
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
}
simulate_identity configs/fig2a.json configs/fig2b.json perfbench/workloads/plus_refit.json
echo "$same of $total artifacts byte-identical to $base"
simulate_identity "$tmp/inline/plus_schedule.json"
echo "$same of $total theoretical-schedule artifacts byte-identical to $base"

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
echo "$same of $total estimate outputs identical to $base"

python3 - "$tmp" <<'EOF'
import json, sys
sim = {"k": 1, "d": 2, "T": 40, "trials": 2, "arms_per_round": 4, "algorithms": [{"name": "random"}]}
bad = {
    "sim-k": dict(sim, k=0), "sim-sigma": dict(sim, sigma=-1), "sim-trials": dict(sim, trials=1),
    "sim-t0": dict(sim, algorithms=[{"name": "ofu_relu", "t0": 0}]),
    "sim-nu0": dict(sim, algorithms=[{"name": "ofu_relu_plus", "nu0": 0}]),
    "sim-a": dict(sim, algorithms=[{"name": "ofu_relu_plus", "a": 1}]),
    "sim-restarts": dict(sim, algorithms=[{"name": "ofu_relu", "fit": {"restarts": 0}}]),
    "sim-lambda": dict(sim, algorithms=[{"name": "oful", "lambda": 0}]),
    "est-delta": {"k": 1, "d": 2, "delta": 1.5}, "est-sample_sizes": {"k": 1, "d": 2, "sample_sizes": [0]},
    # finite values that leave the float range: zeta overflows, t0 underflows nu**8, the grid overflows
    # b**i or (a - 1) T1
    "est-delta-range": {"k": 1, "d": 2, "delta": 1e-320}, "est-sigma-range": {"k": 1, "d": 2, "sigma": 1e200},
    "sim-nu0-range": dict(sim, algorithms=[{"name": "ofu_relu_plus", "nu0": 1e-300}]),
    "sim-b-range": dict(sim, algorithms=[{"name": "ofu_relu_plus", "b": 1e200}]),
    "sim-a-range": dict(sim, algorithms=[{"name": "ofu_relu_plus", "a": 1e308}]),
    "sim-T1": dict(sim, T=5, algorithms=[{"name": "ofu_relu_plus", "T1": 10}]),
    "sim-override": dict(sim, algorithms=[{"name": "ofu_relu_plus", "practical_override": [1]}]),
    # values that are not numbers in the float range of the asked kind, which the range rule rejects
    "sim-T-float": dict(sim, T=2.5), "sim-sigma-str": dict(sim, sigma="0.1"), "sim-k-huge": dict(sim, k=10**400),
    "sim-lambda-bool": dict(sim, algorithms=[{"name": "oful", "lambda": True}]),
    "sim-delta-floor": dict(sim, algorithms=[{"name": "oful", "delta": 1e-320}]),
    "sim-C1-nan": dict(sim, algorithms=[{"name": "ofu_relu_plus", "C1": float("nan")}]),
    "sim-override-str": dict(sim, algorithms=[{"name": "ofu_relu_plus", "practical_override": ["a"]}]),
    "sim-tol-inf": dict(sim, algorithms=[{"name": "ofu_relu", "fit": {"tol": float("inf")}}]),
    "est-sample_sizes-float": {"k": 1, "d": 2, "sample_sizes": [1.5]},
}
for name, cfg in bad.items():
    json.dump(cfg, open(f"{sys.argv[1]}/bad-{name}.json", "w"))
# written as raw text, since json.dump cannot encode an integer of over 4300 digits
with open(f"{sys.argv[1]}/bad-sim-seed-digits.json", "w") as fh:
    fh.write(json.dumps(dict(sim, seed=0)).replace('"seed": 0', '"seed": 1' + "0" * 4400))
EOF
same=0
total=0
for cfg in "$tmp"/bad-sim-*.json; do
  compare "simulate $(basename "$cfg" .json)" simulate --config "$cfg" --out "$tmp/bad-out" --jobs 1
done
for cfg in "$tmp"/bad-est-*.json; do
  compare "estimate $(basename "$cfg" .json)" estimate --config "$cfg"
done
echo "$same of $total invalid-input exit codes identical to $base"
git worktree remove --force "$tmp/base-tree"
rm -rf "$tmp"
