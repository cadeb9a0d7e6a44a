"""Minimal native SVG line plots.

Plots are a convenience for eyeballing results; the CSV files are the
data contract. Rendering is plain polylines with a framed axes box and
tick labels, no external plotting dependency.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round ticks over [lo, hi], hi > lo."""
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def line_plot(
    path: str | Path,
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a single-panel line plot of one or more series on shared x."""
    xs = list(xs)
    if not xs or not series:
        raise ValueError("need at least one point and one series")
    ys_all = [y for _, ys in series for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    font = 'font-family="Helvetica,Arial,sans-serif"'
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-size="12" {font}>{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="12" {font}>{_fmt(ty)}</text>'
        )
    for i, (name, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if name:
            lx, ly = _ML + 10, _MT + 16 + 16 * i
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{lx + 24}" y="{ly}" font-size="12" {font}>{name}</text>'
            )
    if title:
        parts.append(
            f'<text x="{_W / 2}" y="{_MT - 12}" text-anchor="middle" '
            f'font-size="14" {font}>{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + plot_w / 2}" y="{_H - 14}" text-anchor="middle" '
            f'font-size="13" {font}>{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MT + plot_h / 2}" text-anchor="middle" font-size="13" '
            f'{font} transform="rotate(-90 18 {_MT + plot_h / 2})">{ylabel}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
