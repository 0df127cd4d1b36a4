"""Flat-file output: CSV tables and minimal SVG line charts.

CSV files carry a single '#'-prefixed header naming the columns, use ','
as separator, '.' as decimal mark and 12 significant digits, so repeated
runs of a deterministic computation are byte-identical.  The SVG emitter
draws plain polylines with axes and a legend; no renderer dependency.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DomainError


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    text = str(value)
    if "," in text or "\n" in text:
        raise DomainError(f"cell value may not contain separators: {text!r}")
    return text


def emit_csv(columns, rows, path=None) -> str:
    """Render rows (dicts keyed by column name) to CSV text, optionally writing it."""
    lines = ["# " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(col)) for col in columns))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def svg_line_chart(series, path=None, title="", x_label="", y_label="",
                   width=720, height=480) -> str:
    """Draw labelled polylines: series is a sequence of (label, xs, ys)."""
    margin = 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise DomainError("cannot chart empty series")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-size="16">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{height - margin / 4:.1f}" '
            f'text-anchor="middle" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="{margin / 4:.1f}" y="{height / 2:.1f}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 {margin / 4:.1f} {height / 2:.1f})">'
            f"{y_label}</text>"
        )
    for tick in range(5):
        fx = x_lo + tick / 4 * (x_hi - x_lo)
        fy = y_lo + tick / 4 * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(fx):.1f}" y="{height - margin + 16:.1f}" '
            f'text-anchor="middle" font-size="10">{_tick_label(fx)}</text>'
        )
        parts.append(
            f'<text x="{margin - 6:.1f}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{_tick_label(fy)}</text>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{sy(fy):.1f}" x2="{width - margin}" '
            f'y2="{sy(fy):.1f}" stroke="#dddddd"/>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<line x1="{width - margin - 110}" y1="{ly}" '
            f'x2="{width - margin - 88}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 82}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if 0.01 <= magnitude < 10000 and math.isfinite(magnitude):
        return f"{value:.3g}"
    return f"{value:.2e}"
