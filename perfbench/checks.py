"""Output checks of ``simulate`` jobs.

An op is one (algorithm, trial) cell.  A per-cell defect fails that op; a
defect of the job as a whole (missing rows) fails every op of the job.  The
paper's ordering of final mean regret is checked over all the jobs of a run
(``check_order``), and when it fails, every op of the run fails.
"""

from __future__ import annotations

import csv
import json
import math
import os

# final mean regret ordering on the paper's Figure 2 experiments, best first
PAPER_ORDER = ("ofu_relu", "oful", "random")


def check_simulate(out_dir: str, shape: dict) -> tuple[int, int, list[str], dict]:
    """Check one job's artifacts; return (ops attempted, ops failed, problems, final mean regret by algorithm)."""
    k, T, m, trials, labels = shape["k"], shape["T"], shape["m"], shape["trials"], shape["algorithms"]
    attempted = len(labels) * trials
    problems: list[str] = []
    bad_cells: set[tuple[str, str]] = set()
    state: dict[tuple[str, str], list] = {}  # cell -> [rows seen, running regret sum]
    with open(os.path.join(out_dir, "traces.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        ia, iseed, it, ich = col["algorithm"], col["seed"], col["t"], col["chosen_index"]
        iinst, icum = col["inst_regret"], col["cum_regret"]
        for row in reader:
            cell = (row[ia], row[iseed])
            st = state.setdefault(cell, [0, 0.0])
            st[0] += 1
            inst, cum = float(row[iinst]), float(row[icum])
            st[1] += inst
            if (
                int(row[it]) != st[0]
                or not 0.0 <= inst <= k + 1e-9
                or not 0 <= int(row[ich]) < m
                or abs(cum - st[1]) > 1e-9 * max(1.0, abs(cum))
            ):
                bad_cells.add(cell)
    expected = {(label, str(trial)) for label in labels for trial in range(trials)}
    if set(state) != expected or any(st[0] != T for st in state.values()):
        problems.append(f"traces.csv has cells {sorted(state)} with row counts not all {T}")
        return attempted, attempted, problems, {}
    if bad_cells:
        problems.append(f"traces.csv rows out of range or cum_regret not the running sum in {sorted(bad_cells)}")

    with open(os.path.join(out_dir, "aggregate.csv")) as fh:
        agg_rows = sum(1 for _ in fh) - 1
    if agg_rows != len(labels) * T:
        problems.append(f"aggregate.csv has {agg_rows} rows, expected {len(labels) * T}")
        return attempted, attempted, problems, {}
    with open(os.path.join(out_dir, "summary.json")) as fh:
        final = {rec["algorithm"]: rec["final_mean"] for rec in json.load(fh)}
    return attempted, len(bad_cells), problems, final


def check_order(finals: list[dict]) -> str | None:
    """The paper's ordering of final mean regret over jobs of equal trial counts."""
    means = [sum(f.get(label, math.nan) for f in finals) / len(finals) for label in PAPER_ORDER]
    if not means[0] < means[1] < means[2]:
        return f"final mean regret over {len(finals)} jobs not ordered {' < '.join(PAPER_ORDER)}: {means}"
    return None
