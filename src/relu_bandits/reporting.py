"""Result persistence: CSV tables, a dependency-free SVG plot, JSON summary.

Everything here is deterministic: identical inputs produce byte-identical
files (fixed column order, %.12g value formatting, explicit newlines, no
timestamps), so artifacts can be diffed across runs and job counts.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .harness import AggregateResult, TrialTrace

TRACE_HEADER = ["algorithm", "seed", "t", "chosen_index", "reward", "inst_regret", "cum_regret"]
AGG_HEADER = ["algorithm", "t", "mean_cum_regret", "ci_half"]

# curve/band fill per algorithm, cycled in input order
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _csv_prefix(*fields) -> str:
    """The leading cells of a row as ``csv.writer`` writes them, with the delimiter that follows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def export_csv(data, path) -> None:
    """Write traces or aggregates to CSV.

    A list of TrialTrace gets one row per round with the trace schema; a list
    of AggregateResult gets the aggregate schema.  An empty list produces a
    header-only trace CSV.

    Each trace or aggregate is formatted from whole ``.tolist()`` columns, one
    %-format per row (%.12g for the floats), and written in one piece, so at
    most one trace's text is held at a time.  Its label cells come from
    ``csv.writer``, once per trace, so labels that need quoting keep it.
    """
    items = list(data)
    is_agg = bool(items) and isinstance(items[0], AggregateResult)
    kind = AggregateResult if is_agg else TrialTrace
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(AGG_HEADER if is_agg else TRACE_HEADER)
            for item in items:
                if not isinstance(item, kind):
                    raise TypeError("cannot mix traces and aggregates in one CSV")
                if is_agg:
                    prefix = _csv_prefix(item.algorithm)
                    row = "%d,%.12g,%.12g\n"
                    cols = (item.t, item.mean_cum_regret, item.ci_half)
                else:
                    prefix = _csv_prefix(item.algorithm, item.seed)
                    row = "%d,%d,%.12g,%.12g,%.12g\n"
                    cols = (item.t, item.chosen, item.rewards, item.inst_regret, item.cum_regret)
                row = prefix.replace("%", "%%") + row
                fh.write("".join([row % values for values in zip(*[np.asarray(c).tolist() for c in cols])]))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _svg_coords(t, y, x0, x1, y0, y1, tmax, ymax):
    """Map data points to pixel space; y grows downward in SVG."""
    xs = x0 + (np.asarray(t, dtype=float) / tmax) * (x1 - x0)
    ys = y1 - (np.asarray(y, dtype=float) / ymax) * (y1 - y0)
    return xs, ys


def _points(xs, ys) -> str:
    return " ".join(["%.2f,%.2f" % xy for xy in zip(xs.tolist(), ys.tolist())])


def emit_svg(aggregates: list[AggregateResult], path) -> None:
    """Render mean regret curves with shaded CI bands to a standalone SVG."""
    if not aggregates:
        raise ValueError("nothing to plot")
    width, height = 720, 480
    x0, x1 = 70.0, width - 20.0
    y0, y1 = 20.0, height - 50.0  # y0 = top edge, y1 = bottom edge of the plot area
    tmax = max(float(a.t[-1]) for a in aggregates)
    ymax = max(float((a.mean_cum_regret + a.ci_half).max()) for a in aggregates)
    if ymax <= 0.0:
        ymax = 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # CI bands first so curves draw on top
    for j, agg in enumerate(aggregates):
        color = PALETTE[j % len(PALETTE)]
        hi = agg.mean_cum_regret + agg.ci_half
        lo = agg.mean_cum_regret - agg.ci_half
        xs, ys_hi = _svg_coords(agg.t, hi, x0, x1, y0, y1, tmax, ymax)
        _, ys_lo = _svg_coords(agg.t, lo, x0, x1, y0, y1, tmax, ymax)
        pts = _points(np.concatenate([xs, xs[::-1]]), np.concatenate([ys_hi, ys_lo[::-1]]))
        parts.append(f'<polygon class="band" fill="{color}" fill-opacity="0.2" stroke="none" points="{pts}"/>')
    for j, agg in enumerate(aggregates):
        color = PALETTE[j % len(PALETTE)]
        xs, ys = _svg_coords(agg.t, agg.mean_cum_regret, x0, x1, y0, y1, tmax, ymax)
        parts.append(
            f'<polyline class="curve" fill="none" stroke="{color}" stroke-width="1.5" points="{_points(xs, ys)}"/>'
        )
    # axes
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y1:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = x0 + frac * (x1 - x0)
        tv = frac * tmax
        parts.append(f'<line x1="{tx:.2f}" y1="{y1:.2f}" x2="{tx:.2f}" y2="{y1 + 5:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{tx:.2f}" y="{y1 + 20:.2f}" font-size="11" text-anchor="middle">{tv:g}</text>'
        )
        ty = y1 - frac * (y1 - y0)
        yv = frac * ymax
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" font-size="11" text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{height - 12:.2f}" font-size="13" text-anchor="middle">round</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">cumulative regret</text>'
    )
    # legend, top-left inside the plot area
    for j, agg in enumerate(aggregates):
        color = PALETTE[j % len(PALETTE)]
        ly = y0 + 16.0 + 18.0 * j
        parts.append(
            f'<line x1="{x0 + 10:.2f}" y1="{ly:.2f}" x2="{x0 + 34:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        # xml.sax.saxutils.escape by hand: importing it loads urllib.request, about 40 ms per CLI start
        label = agg.algorithm.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{x0 + 40:.2f}" y="{ly + 4:.2f}" font-size="12">{label}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            for part in parts:  # part by part: the file's text is never joined into one string
                fh.write(part + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def write_summary(aggregates: list[AggregateResult], config_echo: dict, path) -> None:
    """One record per algorithm: horizon, trial count, final mean and CI."""
    records = [
        {
            "algorithm": agg.algorithm,
            "T": int(agg.t[-1]),
            "trials": agg.n_trials,
            "final_mean": float(agg.mean_cum_regret[-1]),
            "final_ci_half": float(agg.ci_half[-1]),
            "config_echo": config_echo,
        }
        for agg in aggregates
    ]
    try:
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write summary to {path}: {exc}") from exc
