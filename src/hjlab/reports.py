"""Deterministic report serialization: JSON, flat CSV, and SVG plots.

Byte determinism contract: identical config and seeds produce identical
JSON/CSV bytes.  Wall-clock timings are therefore written to a separate
timings sidecar, never into the canonical files.  The SVG is hand-assembled
(fixed header, sorted attributes, 17-significant-digit coordinates) so it is
reproducible too, though only JSON/CSV are covered by the determinism
criterion.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Optional

from .experiments import ScalingReport

__all__ = ["emit", "canonical_json", "report_csv", "report_svg"]


def canonical_json(obj) -> str:
    """Stable JSON: sorted keys, minimal separators, '\\n'-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True) + "\n"


_CSV_COLUMNS = ["T", "seed", "dx", "dt", "s_window", "v", "lower_bound",
                "upper_bound_advisory", "wT_margin", "progression_margin",
                "grid_slack"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def report_csv(report: ScalingReport) -> str:
    """Flat per-horizon table; per-target speeds appended as speed_i columns."""
    recs = [r for r in report.records if "T" in r and "speeds" in r]
    n_speed = max((len(r["speeds"]) for r in recs), default=0)
    cols = _CSV_COLUMNS + [f"speed_{i}" for i in range(n_speed)]
    lines = [",".join(cols)]
    for r in recs:
        row = [_fmt(r.get(c)) for c in _CSV_COLUMNS]
        speeds = r["speeds"] + [None] * (n_speed - len(r["speeds"]))
        row += [_fmt(s) for s in speeds]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _svg_points(report: ScalingReport):
    """(abscissa, speed) per target series; abscissa is (log T)^(2/beta)."""
    beta = report.config.get("beta", 2.0)
    recs = [r for r in report.records if "T" in r and "speeds" in r
            and isinstance(r.get("T"), (int, float)) and r["T"] == r["T"]]
    series = {}
    bounds_lo, bounds_hi = [], []
    for r in recs:
        a = math.log(r["T"]) ** (2.0 / beta)
        for i, s in enumerate(r["speeds"]):
            series.setdefault(i, []).append((a, s))
        bounds_lo.append((a, r.get("lower_bound", 0.0)))
        bounds_hi.append((a, r.get("upper_bound_advisory", 0.0)))
    return series, sorted(bounds_lo), sorted(bounds_hi)


_WIDTH, _HEIGHT = 640, 420   # SVG canvas size in px


def report_svg(report: ScalingReport) -> str:
    """Scatter of terminal speed against (log T)^(2/beta).

    One <g class="series"> per terminal-x sample plus two bound polylines
    (constructive lower, advisory upper).
    """
    series, lo, hi = _svg_points(report)
    pts = [p for ser in series.values() for p in ser] + lo + hi
    if not pts:
        body = ['<text x="20" y="30">empty report</text>']
        return _svg_doc(body)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    pad = 50.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (_WIDTH - 2 * pad)

    def sy(y):
        return _HEIGHT - pad - (y - y0) / (y1 - y0) * (_HEIGHT - 2 * pad)

    body = []
    body.append(f'<line x1="{pad}" y1="{_HEIGHT - pad}" x2="{_WIDTH - pad}" '
                f'y2="{_HEIGHT - pad}" stroke="black"/>')
    body.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                f'y2="{_HEIGHT - pad}" stroke="black"/>')
    body.append(f'<text x="{_WIDTH / 2:.17g}" y="{_HEIGHT - 12}" '
                'text-anchor="middle">(log T)^(2/beta)</text>')
    body.append(f'<text x="14" y="{_HEIGHT / 2:.17g}" text-anchor="middle" '
                f'transform="rotate(-90 14 {_HEIGHT / 2:.17g})">terminal speed</text>')
    for name, line, dash in (("bound-lower", lo, "4 3"), ("bound-upper", hi, "8 3")):
        if line:
            coords = " ".join(f"{sx(a):.17g},{sy(b):.17g}" for a, b in line)
            body.append(f'<polyline class="bound" id="{name}" fill="none" '
                        f'points="{coords}" stroke="gray" '
                        f'stroke-dasharray="{dash}"/>')
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2"]
    for i in sorted(series):
        color = palette[i % len(palette)]
        circles = "".join(
            f'<circle cx="{sx(a):.17g}" cy="{sy(b):.17g}" r="3.5" '
            f'fill="{color}"/>' for a, b in sorted(series[i]))
        body.append(f'<g class="series" id="series-x{i}">{circles}</g>')
    return _svg_doc(body)


def _svg_doc(body: Iterable[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
            'font-family="monospace" font-size="12">')
    return head + "".join(body) + "</svg>\n"


def emit(report: ScalingReport, out_dir: str, stem: Optional[str] = None) -> dict:
    """Write the report files; returns {format: path}.

    JSON carries the full canonical record (config, records, fit, flags);
    CSV is the flat per-horizon table; SVG the scaling scatter.  Wall-clock
    timings, when present, go to <stem>_timings.json, which is excluded from
    the byte-determinism guarantee.
    """
    stem = stem or report.kind
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for fmt, text in (("json", canonical_json(report.to_dict())),
                      ("csv", report_csv(report)), ("svg", report_svg(report))):
        paths[fmt] = os.path.join(out_dir, f"{stem}.{fmt}")
        with open(paths[fmt], "w") as f:
            f.write(text)
    if report.wall_times:
        tp = os.path.join(out_dir, f"{stem}_timings.json")
        with open(tp, "w") as f:
            f.write(canonical_json({"wall_times_s": {
                k: round(v, 6) for k, v in sorted(report.wall_times.items())}}))
        paths["timings"] = tp
    return paths
