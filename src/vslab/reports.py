"""CSV and SVG report emission.

CSV files are RFC-4180 style with a header row always present; binary64
values are printed with 17 significant digits so every number parses back to
the exact double that produced it.  SVG plots are single self-contained
files, one polyline per series with one point per sample.  Every file is
written whole through ``vslab.atomic``.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from vslab.atomic import atomic_open

SERIES_COLUMNS = ("t", "energy", "enstrophy", "dissipation", "enstrophy_dissipation")
SLAB_COLUMNS = (
    "k",
    "dt_k",
    "kstar",
    "f_k",
    "M_k",
    "gronwall_bound",
    "margin",
    "picard_iters",
    "max_rho",
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def fmt(value):
    """17-significant-digit text for floats; plain text otherwise."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows):
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def write_series_csv(path, ledger):
    s = ledger.series
    rows = zip(s.times, s.energy, s.enstrophy, s.dissipation, s.enstrophy_dissipation)
    return write_csv(path, SERIES_COLUMNS, rows)


def write_slabs_csv(path, ledger):
    rows = [
        (
            r.index,
            r.width,
            r.kstar,
            r.f_k,
            r.M_k,
            r.gronwall_bound,
            r.margin,
            r.picard_iterations if r.picard_iterations is not None else "nan",
            r.max_ratio,
        )
        for r in ledger.rows
    ]
    return write_csv(path, SLAB_COLUMNS, rows)


def write_summary_csv(path, ledger, extra=()):
    rows = [
        ("K0", ledger.K0),
        ("eps0", ledger.eps0),
        ("C", ledger.C),
        ("T", ledger.T),
        ("global_bound", ledger.global_bound),
        ("sup_enstrophy", ledger.sup_enstrophy),
        ("global_pass", int(ledger.global_ok)),
        ("recursion_violations", sum(0 if r.recursion_ok else 1 for r in ledger.rows)),
        ("slab_rule_violations", len(ledger.slab_rule_violations)),
    ]
    rows.extend(extra)
    return write_csv(path, ("quantity", "value"), rows)


def _polyline(xs, ys, width, height, pad, x_rng, y_rng, color):
    x_lo, x_hi = x_rng
    y_lo, y_hi = y_rng
    dx = (x_hi - x_lo) or 1.0
    dy = (y_hi - y_lo) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - x_lo) / dx * (width - 2 * pad)
        py = height - pad - (y - y_lo) / dy * (height - 2 * pad)
        pts.append(f"{px:.3f},{py:.3f}")
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/>'
    )


def write_series_svg(path, title, xs, named_series):
    """One self-contained line plot; one polyline per named series."""
    width, height, pad = 800, 500, 50
    xs = np.asarray(xs, dtype=np.float64)
    all_y = [np.asarray(ys, dtype=np.float64) for _, ys in named_series]
    if len(xs):
        x_rng = (float(np.min(xs)), float(np.max(xs)))
        ys_cat = np.concatenate(all_y) if all_y else np.array([0.0])
        y_rng = (float(np.min(ys_cat)), float(np.max(ys_cat))) if len(ys_cat) else (0.0, 1.0)
    else:
        x_rng, y_rng = (0.0, 1.0), (0.0, 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-family="sans-serif" '
        f'font-size="11">{fmt(x_rng[0])}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(x_rng[1])}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(y_rng[0])}</text>',
        f'<text x="{pad - 4}" y="{pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(y_rng[1])}</text>',
    ]
    for i, (name, ys) in enumerate(named_series):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(_polyline(xs, np.asarray(ys, dtype=np.float64), width, height, pad, x_rng, y_rng, color))
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 * (i + 1)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with atomic_open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def emit_reports(outdir, ledger, extra_summary=()):
    """Write the fixed report set for a run; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "series": write_series_csv(os.path.join(outdir, "series.csv"), ledger),
        "slabs": write_slabs_csv(os.path.join(outdir, "slabs.csv"), ledger),
        "summary": write_summary_csv(os.path.join(outdir, "summary.csv"), ledger, extra_summary),
    }
    s = ledger.series
    paths["series_svg"] = write_series_svg(
        os.path.join(outdir, "series.svg"),
        "norm series",
        s.times,
        [("energy", s.energy), ("enstrophy", s.enstrophy), ("dissipation", s.dissipation)],
    )
    paths["slabs_svg"] = write_series_svg(
        os.path.join(outdir, "slabs.svg"),
        "per-slab enstrophy bound",
        [r.index for r in ledger.rows],
        [
            ("M_k", [r.M_k for r in ledger.rows]),
            ("gronwall_bound", [r.gronwall_bound for r in ledger.rows]),
        ],
    )
    return paths
