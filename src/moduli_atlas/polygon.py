"""Static SVG pictures of filtration polygons.

Every rank-2 type with sub-degree m draws the path (0,0) -> (1, m*H.H)
-> (2, n*H.H); the semistable locus draws the straight chord.  The picture
therefore depends only on the set of sub-degrees: the ell-splittings sharing
an m share one polygon and are spelled out in the legend.  All coordinates
are exact integers inside a declared viewBox (the y axis is negated so that
higher degree plots higher), and the output bytes depend only on the input.
"""

from __future__ import annotations

from .hn import ComponentRecord
from .lattice import MukaiVector, Surface

__all__ = ["polygon_svg"]

_X_STEP = 120
_Y_STEP = 6
_PALETTE = ("#1b6ca8", "#c43f3f", "#3f9d4e", "#8e4fb0", "#c28b1e", "#4f7f8b")


def _shell(header: str, body: list[str], top: int, bottom: int, width: int) -> str:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-40 {top} {width} {bottom - top}">',
        f'<text x="0" y="{top + 20}" font-size="14" font-family="monospace">{header}</text>',
    ]
    lines.extend(body)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def polygon_svg(
    s: Surface, v: MukaiVector, components: list[ComponentRecord], m_max: int
) -> str:
    """Overlay of the polygons of all non-absorbed components of the stack."""
    h2 = s.h_squared
    n = v.deg
    header = f"h2={h2} v=({v.rank}, {v.deg}, {v.a}) window m&lt;={m_max}"
    chord = any(c.kind == "semistable" for c in components)
    by_m: dict[int, list[tuple[int, int, int]]] = {}
    for c in components:
        if c.triple is not None and not c.absorbed:
            by_m.setdefault(c.triple[0], []).append(c.triple)
    if not chord and not by_m:
        return _shell(header, ['<text x="0" y="60" font-size="14" font-family="monospace">no components in window</text>'], 0, 100, 560)

    ms = sorted(by_m)
    y_values = [0, n * h2] + [m * h2 for m in ms]
    y_hi = -max(y_values) * _Y_STEP  # smallest svg y of the plot
    y_lo = -min(y_values) * _Y_STEP

    legend: list[tuple[str, str]] = []
    if chord:
        legend.append(("#000000", "semistable: straight chord"))
    body: list[str] = []
    if chord:
        body.append(
            f'<line x1="0" y1="0" x2="{2 * _X_STEP}" y2="{-n * h2 * _Y_STEP}" '
            'stroke="#000000" stroke-width="2" stroke-dasharray="6 4"/>'
        )
    for i, m in enumerate(ms):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<polyline points="0,0 {_X_STEP},{-m * h2 * _Y_STEP} {2 * _X_STEP},{-n * h2 * _Y_STEP}" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
        triples = " ".join(str(t) for t in by_m[m])
        legend.append((color, f"m={m}: {triples}"))

    legend_top = y_lo + 30
    for i, (color, label) in enumerate(legend):
        body.append(
            f'<text x="0" y="{legend_top + 18 * i}" font-size="13" '
            f'font-family="monospace" fill="{color}">{label}</text>'
        )
    top = y_hi - 50
    bottom = legend_top + 18 * len(legend) + 20
    width = max(560, 40 + 8 * max(len(label) for _, label in legend))
    return _shell(header, body, top, bottom, width)
