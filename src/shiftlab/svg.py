"""Minimal SVG scatter plots on unit-square axes.

Hand-rolled rather than delegated to a plotting library so that output bytes
are fully determined by the inputs; re-running a pipeline must reproduce the
figure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

_SIZE = 640
_MARGIN = 60
_PLOT = _SIZE - 2 * _MARGIN

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Overlay:
    label: str
    points: list[tuple[float, float]]
    color: str | None = None


@dataclass
class PlotStyle:
    title: str = ""
    x_label: str = "majority accuracy"
    y_label: str = "minority accuracy"
    point_color: str = "#1f77b4"
    point_radius: float = 3.0
    point_opacity: float = 0.45


def _sx(x: float) -> float:
    return _MARGIN + x * _PLOT


def _sy(y: float) -> float:
    return _SIZE - _MARGIN - y * _PLOT


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_scatter(points: list[tuple[float, float]],
                   overlays: list[Overlay] | None = None,
                   style: PlotStyle | None = None,
                   extra_groups: list[tuple[list[tuple[float, float]], str, str]] | None = None) -> str:
    """Unit-square scatter with 0.1 ticks; overlays drawn as polylines.

    ``extra_groups`` adds further point clouds as (points, color, label).
    """
    if not points:
        raise ValueError("cannot render an empty scatter")
    style = style or PlotStyle()
    overlays = overlays or []
    extra_groups = extra_groups or []

    parts = [
        f'<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" height="{_PLOT}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for k in range(11):
        v = k / 10.0
        x, y = _sx(v), _sy(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_SIZE - _MARGIN}" x2="{x:.1f}" '
                     f'y2="{_SIZE - _MARGIN + 6}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{_SIZE - _MARGIN + 20}" font-size="11" '
                     f'text-anchor="middle">{_fmt(v)}</text>')
        parts.append(f'<line x1="{_MARGIN - 6}" y1="{y:.1f}" x2="{_MARGIN}" '
                     f'y2="{y:.1f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN - 10}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{_fmt(v)}</text>')
        if 0 < k < 10:
            parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN}" x2="{x:.1f}" '
                         f'y2="{_SIZE - _MARGIN}" stroke="#dddddd" stroke-width="0.5"/>')
            parts.append(f'<line x1="{_MARGIN}" y1="{y:.1f}" x2="{_SIZE - _MARGIN}" '
                         f'y2="{y:.1f}" stroke="#dddddd" stroke-width="0.5"/>')

    parts.append(f'<text x="{_SIZE / 2:.1f}" y="{_SIZE - 14}" font-size="14" '
                 f'text-anchor="middle">{style.x_label}</text>')
    parts.append(f'<text x="18" y="{_SIZE / 2:.1f}" font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_SIZE / 2:.1f})">{style.y_label}</text>')
    if style.title:
        parts.append(f'<text x="{_SIZE / 2:.1f}" y="{_MARGIN - 16}" font-size="15" '
                     f'text-anchor="middle">{style.title}</text>')

    for x, y in points:
        parts.append(f'<circle cx="{_sx(x):.2f}" cy="{_sy(y):.2f}" '
                     f'r="{style.point_radius}" fill="{style.point_color}" '
                     f'fill-opacity="{style.point_opacity}"/>')

    for gi, (gpoints, color, label) in enumerate(extra_groups):
        for x, y in gpoints:
            parts.append(f'<circle cx="{_sx(x):.2f}" cy="{_sy(y):.2f}" '
                         f'r="{style.point_radius}" fill="{color}" '
                         f'fill-opacity="{style.point_opacity}"/>')
        parts.append(f'<text x="{_SIZE - _MARGIN - 6}" y="{_MARGIN - 8 - 16 * gi}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{label}</text>')

    for i, ov in enumerate(overlays):
        if not ov.points:
            continue
        color = ov.color or _PALETTE[(i + 1) % len(_PALETTE)]
        coords = " ".join(f"{_sx(x):.2f},{_sy(y):.2f}" for x, y in ov.points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_SIZE - _MARGIN - 6}" y="{_MARGIN + 18 + 16 * i}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{ov.label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(points: list[tuple[float, float]], overlays: list[Overlay] | None,
              style: PlotStyle | None, path: str | Path, *, extra_groups=None) -> None:
    """``render_scatter``'s text written to ``path``."""
    Path(path).write_text(render_scatter(points, overlays, style, extra_groups))
