"""Minimal deterministic SVG 1.1 writers for heatmaps, curves and bars.

No plotting library: byte-identical output for identical inputs is part of
the reproducibility contract, so these compose plain SVG strings.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

# Probability 0 renders white, probability 1 renders this dark blue.
_DARK = (21, 65, 122)

# Side of one heatmap cell, and the loss chart's size, in pixels.
_CELL = 18
_CHART_WIDTH = 560
_CHART_HEIGHT = 360

# Distinguishable marker colors for attempted skills (cycled).
PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231",
    "#911eb4", "#46f0f0", "#f032e6", "#bcf60c", "#008080",
)


def _mastery_color(value: float) -> str:
    v = min(max(float(value), 0.0), 1.0)
    r = round(255 + (_DARK[0] - 255) * v)
    g = round(255 + (_DARK[1] - 255) * v)
    b = round(255 + (_DARK[2] - 255) * v)
    return f"rgb({r},{g},{b})"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def mastery_heatmap(
    grid: np.ndarray,
    skill_labels: list[str],
    attempts: list[tuple[int, int]],
    tracked_skills: list[int],
) -> str:
    """Heatmap of per-step mastery (rows = tracked skills, columns = steps).

    ``grid`` is [steps x tracked skills] with probabilities; darker means
    higher mastery. ``attempts`` lists (skill, correctness) per step and is
    rendered as a top row of markers: color identifies the skill (grey when
    the skill is not tracked), a filled circle is a correct response and a
    hollow one is wrong. Column t shows the state before the response at
    step t+1 is revealed; the first column is the untrained initial state.
    """
    steps, num_tracked = grid.shape
    if len(skill_labels) != num_tracked:
        raise ValueError(f"{num_tracked} grid columns but {len(skill_labels)} labels")
    label_w = 12 + 7 * max((len(s) for s in skill_labels), default=0)
    top = _CELL + 10
    width = label_w + steps * _CELL + 10
    height = top + num_tracked * _CELL + 24
    color_of = {s: PALETTE[i % len(PALETTE)] for i, s in enumerate(tracked_skills)}
    body = ['<g shape-rendering="crispEdges">']
    for t in range(steps):
        x = label_w + t * _CELL
        for k in range(num_tracked):
            y = top + k * _CELL
            body.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_mastery_color(grid[t, k])}"/>'
            )
    body.append("</g>")
    body.append("<g>")
    for t, (skill, correct) in enumerate(attempts):
        cx = label_w + t * _CELL + _CELL / 2
        cy = top - _CELL / 2
        color = color_of.get(skill, "#999999")
        if correct:
            body.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="{_CELL / 2 - 2:g}" fill="{color}"/>')
        else:
            body.append(
                f'<circle cx="{cx:g}" cy="{cy:g}" r="{_CELL / 2 - 2:g}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    body.append("</g>")
    body.append('<g font-family="monospace" font-size="10" fill="#000000">')
    for k, label in enumerate(skill_labels):
        y = top + k * _CELL + _CELL / 2 + 3
        body.append(f'<text x="4" y="{y:g}">{escape(label)}</text>')
    body.append(
        f'<text x="{label_w}" y="{height - 8}">steps 1..{steps} '
        "(darker = higher mastery; top row: attempts, filled = correct)</text>"
    )
    body.append("</g>")
    return _document(width, height, body)


def line_chart(series: dict[str, list[float]], title: str) -> str:
    """Simple multi-series line chart over epochs (used for train/val loss curves)."""
    margin = 46
    plot_w = _CHART_WIDTH - 2 * margin
    plot_h = _CHART_HEIGHT - 2 * margin
    all_values = [v for vs in series.values() for v in vs]
    if not all_values:
        raise ValueError("line_chart needs at least one point")
    lo = min(all_values)
    hi = max(all_values)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(vs) for vs in series.values())
    span = max(n - 1, 1)

    def sx(i: int) -> float:
        return margin + plot_w * i / span

    def sy(v: float) -> float:
        return margin + plot_h * (1.0 - (v - lo) / (hi - lo))

    body = [
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#222222"/>'
    ]
    for idx, (name, values) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(values))
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{margin + 6}" y="{margin + 16 + 14 * idx}" font-family="monospace" '
            f'font-size="11" fill="{color}">{escape(name)}</text>'
        )
    body.append(
        f'<text x="{margin}" y="{margin - 10}" font-family="monospace" font-size="12">'
        f"{escape(title)}</text>"
    )
    body.append(
        f'<text x="{_CHART_WIDTH / 2:g}" y="{_CHART_HEIGHT - 8}" font-family="monospace" '
        f'font-size="11">epoch (0..{span})</text>'
    )
    body.append(
        f'<text x="4" y="{margin + 4}" font-family="monospace" font-size="10">{hi:.4g}</text>'
    )
    body.append(
        f'<text x="4" y="{margin + plot_h}" font-family="monospace" font-size="10">{lo:.4g}</text>'
    )
    return _document(_CHART_WIDTH, _CHART_HEIGHT, body)


def bar_pairs(
    labels: list[str],
    initial: list[float],
    final: list[float],
    title: str,
) -> str:
    """Paired bars comparing initial vs final values per label (0..1 scale)."""
    if not (len(labels) == len(initial) == len(final)):
        raise ValueError("labels, initial and final must have equal lengths")
    bar_w = 22
    gap = 26
    margin = 40
    plot_h = 220
    group_w = 2 * bar_w + gap
    width = margin * 2 + group_w * len(labels)
    height = margin + plot_h + 70
    body = [
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{width - margin}" '
        f'y2="{margin + plot_h}" stroke="#222222"/>'
    ]
    for i, label in enumerate(labels):
        x0 = margin + i * group_w
        for j, (value, color) in enumerate(((initial[i], "#b0b0b0"), (final[i], _mastery_color(1.0)))):
            v = min(max(float(value), 0.0), 1.0)
            h = plot_h * v
            x = x0 + j * bar_w
            body.append(
                f'<rect x="{x:g}" y="{margin + plot_h - h:g}" width="{bar_w}" '
                f'height="{h:g}" fill="{color}"/>'
            )
        body.append(
            f'<text x="{x0:g}" y="{margin + plot_h + 14}" font-family="monospace" '
            f'font-size="9">{escape(label[:12])}</text>'
        )
    body.append(
        f'<text x="{margin}" y="{margin - 12}" font-family="monospace" font-size="12">'
        f"{escape(title)} (grey = initial, blue = final)</text>"
    )
    return _document(width, height, body)
