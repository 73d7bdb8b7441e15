"""Record the artifact hashes of finished benchmark runs as the reference.

    python3 perfbench/reference.py

Reads every run record in ``.perfbench/results/`` whose checks all passed
and adds the hashes of its first job to ``perfbench/reference_hashes.json`` under
(workload, seed).  Run it at the commit whose numbers are the reference,
after benchmark runs on the seeds to be covered.  A seed already in the
file keeps its hashes, so a later commit that moves the numbers cannot
overwrite the reference by accident; to re-record one, delete it first.
"""

from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_hashes.json")


def main() -> int:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    added = differ = 0
    for path in sorted(glob.glob(os.path.join(".perfbench", "results", "*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        if run["problems"] or not run["hashes"]:
            continue
        seeds = ref.setdefault(run["workload"], {})
        seed = str(run["seed"])
        if seed not in seeds:
            seeds[seed] = run["hashes"]
            added += 1
        elif seeds[seed] != run["hashes"]:
            differ += 1
    ref = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0]))) for w, s in sorted(ref.items())}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(f"recorded {added} new (workload, seed) hashes; {differ} runs differ from the reference and were not recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
