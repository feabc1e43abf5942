"""Minimal SVG chart rendering: scatter plots with an identity diagonal and
stacked bar charts. No plotting framework; output is plain markup that diffs
cleanly in review."""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = {"left": 72, "right": 160, "top": 40, "bottom": 56}

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], about five of them."""
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    span = hi - lo
    raw_step = span / 4
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiple in (1, 2, 2.5, 5, 10):
        step = multiple * magnitude
        if step >= raw_step:
            break
    start = math.floor(lo / step) * step
    ticks = []
    value = start
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2g}"
    return f"{value:g}"


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">{escape(title)}</text>',
            f'<text x="{(MARGIN["left"] + WIDTH - MARGIN["right"]) / 2}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="12">{escape(xlabel)}</text>',
            f'<text x="18" y="{(MARGIN["top"] + HEIGHT - MARGIN["bottom"]) / 2}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 18 {(MARGIN["top"] + HEIGHT - MARGIN["bottom"]) / 2})">'
            f"{escape(ylabel)}</text>",
        ]

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def scatter_svg(
    series: list[tuple[str, object]],
    title: str,
    xlabel: str,
    ylabel: str,
    diagonal: bool = True,
) -> str:
    """Scatter plot of (x, y) series; the diagonal marks perfect predictions.

    Each series' points are a sequence of (x, y) pairs or an (n, 2) array.
    """
    arrays = [np.asarray(pts, dtype=float).reshape(-1, 2) for _, pts in series]
    filled = [pts for pts in arrays if len(pts)]
    # both axes share one range, from 0 or below; no points span [0, 1]
    lo = min([float(pts.min()) for pts in filled] + [0.0])
    hi = max([float(pts.max()) for pts in filled] or [1.0])
    ticks = nice_ticks(lo, hi)
    lo, hi = ticks[0], ticks[-1]
    x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
    y0, y1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    # scalars and arrays alike, with the same operations in the same order
    def sx(v):
        return x0 + (v - lo) / (hi - lo) * (x1 - x0)

    def sy(v):
        return y0 + (v - lo) / (hi - lo) * (y1 - y0)

    canvas = _Canvas(title, xlabel, ylabel)
    canvas.parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#333333"/>'
    )
    for tick in ticks:
        px, py = sx(tick), sy(tick)
        canvas.parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="#333333"/>')
        canvas.parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" font-size="10">{_fmt(tick)}</text>'
        )
        canvas.parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#333333"/>')
        canvas.parts.append(
            f'<text x="{x0 - 8}" y="{py + 3:.1f}" text-anchor="end" font-size="10">{_fmt(tick)}</text>'
        )
    if diagonal:
        canvas.parts.append(
            f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
            'stroke="#999999" stroke-dasharray="6 4"/>'
        )
    for i, ((label, _), pts) in enumerate(zip(series, arrays)):
        color = PALETTE[i % len(PALETTE)]
        circle = f'<circle cx="{{:.2f}}" cy="{{:.2f}}" r="3.5" fill="{color}" fill-opacity="0.65"/>'
        canvas.parts += map(circle.format, sx(pts[:, 0]).tolist(), sy(pts[:, 1]).tolist())
        ly = MARGIN["top"] + 16 * i + 8
        canvas.parts.append(f'<circle cx="{x1 + 16}" cy="{ly}" r="4" fill="{color}"/>')
        canvas.parts.append(f'<text x="{x1 + 26}" y="{ly + 4}" font-size="11">{escape(label)}</text>')
    return canvas.finish()


def stacked_bar_svg(
    bars: list[tuple[str, list[tuple[str, float]]]],
    title: str,
    ylabel: str,
) -> str:
    """Stacked bars of per-segment fractions (each bar normalized to its own sum)."""
    canvas = _Canvas(title, "", ylabel)
    x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
    y0, y1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]
    segment_names: list[str] = []
    for _, segments in bars:
        for name, _ in segments:
            if name not in segment_names:
                segment_names.append(name)
    colors = {name: PALETTE[i % len(PALETTE)] for i, name in enumerate(segment_names)}
    canvas.parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#333333"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        py = y0 + frac * (y1 - y0)
        canvas.parts.append(
            f'<text x="{x0 - 8}" y="{py + 3:.1f}" text-anchor="end" font-size="10">{_fmt(frac)}</text>'
        )
    n = max(len(bars), 1)
    slot = (x1 - x0) / n
    bar_width = slot * 0.6
    for i, (label, segments) in enumerate(bars):
        total = sum(v for _, v in segments) or 1.0
        cx = x0 + slot * (i + 0.5)
        base = y0
        for name, value in segments:
            height = (value / total) * (y0 - y1)
            base -= height
            canvas.parts.append(
                f'<rect x="{cx - bar_width / 2:.1f}" y="{base:.1f}" width="{bar_width:.1f}" '
                f'height="{height:.1f}" fill="{colors[name]}"/>'
            )
        canvas.parts.append(
            f'<text x="{cx:.1f}" y="{y0 + 18}" text-anchor="middle" font-size="11">{escape(label)}</text>'
        )
    for i, name in enumerate(segment_names):
        ly = MARGIN["top"] + 16 * i + 8
        canvas.parts.append(f'<rect x="{x1 + 10}" y="{ly - 6}" width="12" height="12" fill="{colors[name]}"/>')
        canvas.parts.append(f'<text x="{x1 + 28}" y="{ly + 4}" font-size="11">{escape(name)}</text>')
    return canvas.finish()
