"""Minimal SVG output for planar cromlech diagrams.

The unit circle maps to a fixed 512x512 viewBox with the y axis flipped, so
figures look the way they are drawn on paper.  Output is deterministic: fixed
decimal formatting, no timestamps.
"""

from __future__ import annotations

import numpy as np

from .reversions import COINCIDENT_ATOL

__all__ = ["render_starfield"]

SIZE = 512
CENTER = SIZE / 2
SCALE = 230.0  # unit radius in pixels, leaving a margin inside the viewBox


def _xy(p) -> tuple[float, float]:
    return CENTER + SCALE * float(p[0]), CENTER - SCALE * float(p[1])


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _circle(p, r, style) -> str:
    x, y = _xy(p)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" {style}/>'


def _line(p, q, style) -> str:
    x1, y1 = _xy(p)
    x2, y2 = _xy(q)
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _points(points) -> np.ndarray:
    """A sequence of points as rows; an empty list is no points, not one
    point of no coordinates."""
    points = np.asarray(points, dtype=float)
    return points.reshape(0, 2) if points.shape == (0,) else np.atleast_2d(points)


def render_starfield(
    before,
    after,
    menhirs=(),
    fixed_points=(),
    trace=None,
) -> str:
    """SVG of the cromlech with stars before (hollow) and after (filled) a shift.

    `before`/`after` are matching sequences of planar unit vectors; menhirs are
    drawn as diamonds, fixed points as crosses, and an optional construction
    trace contributes labeled points and segments.
    """
    before, after = _points(before), _points(after)
    if before.shape != after.shape or before.shape[1] != 2:
        raise ValueError("before/after must be matching lists of planar points")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SIZE} {SIZE}">',
        "<defs>"
        '<marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#555"/></marker>'
        "</defs>",
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        _circle((0.0, 0.0), SCALE, 'fill="none" stroke="black" stroke-width="1.5"'),
    ]
    for src, dst in zip(before, after):
        if np.linalg.norm(dst - src) > COINCIDENT_ATOL:
            parts.append(
                _line(src, dst, 'stroke="#555" stroke-width="1" marker-end="url(#tip)"')
            )
    for src in before:
        parts.append(_circle(src, 4, 'fill="white" stroke="black" stroke-width="1.2"'))
    for dst in after:
        parts.append(_circle(dst, 4, 'fill="black"'))
    for m in menhirs:
        x, y = _xy(m)
        parts.append(
            f'<path d="M {_fmt(x)} {_fmt(y - 6)} L {_fmt(x + 6)} {_fmt(y)} '
            f'L {_fmt(x)} {_fmt(y + 6)} L {_fmt(x - 6)} {_fmt(y)} Z" fill="#c22"/>'
        )
    for fp in fixed_points:
        x, y = _xy(fp)
        parts.append(
            f'<path d="M {_fmt(x - 5)} {_fmt(y)} H {_fmt(x + 5)} '
            f'M {_fmt(x)} {_fmt(y - 5)} V {_fmt(y + 5)}" stroke="#06c" stroke-width="2"/>'
        )
    if trace is not None:
        for label, p, q in trace.segments:
            parts.append(_line(p, q, 'stroke="#2a2" stroke-width="1" stroke-dasharray="4 3"'))
        for label, p in trace.points:
            parts.append(_circle(p, 2.5, 'fill="#2a2"'))
            x, y = _xy(p)
            parts.append(
                f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 4)}" font-size="11" fill="#2a2">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
