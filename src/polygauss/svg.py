"""Minimal self-contained log-log SVG line charts for curve diagnostics.

Deterministic output: same data, same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_e, hi_e + 1) if lo <= 10.0 ** e <= hi]


def line_chart(
    path: str | Path,
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Chart y against x on log-log axes, leaving out points not finite and positive."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if x.size < 2:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return

    xv, yv = np.log10(x), np.log10(y)
    x0, x1 = float(xv.min()), float(xv.max())
    y0, y1 = float(yv.min()), float(yv.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v: float) -> float:
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_W}' height='{_H}' "
        f"font-family='monospace' font-size='11'>",
        f"<rect width='{_W}' height='{_H}' fill='white'/>",
        f"<text x='{_W / 2:.1f}' y='20' text-anchor='middle' font-size='13'>{title}</text>",
        f"<rect x='{_ML}' y='{_MT}' width='{_W - _ML - _MR}' height='{_H - _MT - _MB}' "
        f"fill='none' stroke='black'/>",
    ]
    for t in _ticks(x.min(), x.max()):
        xp = px(math.log10(t))
        parts.append(
            f"<line x1='{xp:.1f}' y1='{_H - _MB}' x2='{xp:.1f}' y2='{_H - _MB + 4}' stroke='black'/>"
        )
        parts.append(
            f"<text x='{xp:.1f}' y='{_H - _MB + 16}' text-anchor='middle'>{t:g}</text>"
        )
    for t in _ticks(10.0 ** y0, 10.0 ** y1):
        yp = py(math.log10(t))
        if not _MT <= yp <= _H - _MB:
            continue
        parts.append(
            f"<line x1='{_ML - 4}' y1='{yp:.1f}' x2='{_ML}' y2='{yp:.1f}' stroke='black'/>"
        )
        parts.append(
            f"<text x='{_ML - 7}' y='{yp + 4:.1f}' text-anchor='end'>{t:g}</text>"
        )
    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, yv))
    parts.append(
        f"<polyline points='{pts}' fill='none' stroke='#1f77b4' stroke-width='1.5'/>"
    )
    parts.append(
        f"<text x='{(_ML + _W - _MR) / 2:.1f}' y='{_H - 10}' text-anchor='middle'>{xlabel}</text>"
    )
    parts.append(
        f"<text x='14' y='{(_MT + _H - _MB) / 2:.1f}' text-anchor='middle' "
        f"transform='rotate(-90 14 {(_MT + _H - _MB) / 2:.1f})'>{ylabel}</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
