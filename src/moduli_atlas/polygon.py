"""Static SVG pictures of filtration polygons.

Every rank-2 type with sub-degree m draws the path (0,0) -> (1, m*H.H)
-> (2, n*H.H); the semistable locus draws the straight chord.  The picture
therefore depends only on the set of sub-degrees: the ell-splittings sharing
an m share one polygon and are spelled out in the legend.  All coordinates
are exact integers inside a declared viewBox (the y axis is negated so that
higher degree plots higher), and the output bytes depend only on the input.
"""

from __future__ import annotations

from .lattice import MukaiVector, Surface
from .report import format_types

__all__ = ["polygon_svg", "write_polygon_svg"]

_X_STEP = 120
_Y_STEP = 6
_PALETTE = ("#1b6ca8", "#c43f3f", "#3f9d4e", "#8e4fb0", "#c28b1e", "#4f7f8b")
_FONT = 'font-family="monospace"'


def _open(write, header: str, top: int, bottom: int, width: int) -> None:
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-40 {top} {width} {bottom - top}">\n'
        f'<text x="0" y="{top + 20}" font-size="14" {_FONT}>{header}</text>\n'
    )


def write_polygon_svg(write, s: Surface, v: MukaiVector, listings: list[tuple], m_max: int) -> None:
    """Overlay of the polygons of all non-absorbed strata of the stack.

    `listings` are those of `torsion_free.tf_listings`: one per sub-degree,
    so each listing's label in the legend is formatted in one piece.  The
    labels are made before anything is written, because the widest one sets
    the width of the picture.
    """
    h2 = s.h_squared
    n = v.deg
    header = f"h2={h2} v=({v.rank}, {v.deg}, {v.a}) window m&lt;={m_max}"
    chord = any(listing[0] == "semistable" for listing in listings)
    kept = [
        (m, ell1s, ell2s)
        for _, _, _, absorbed, _, m, ell1s, ell2s in listings
        if m is not None and not absorbed
    ]
    if not chord and not kept:
        _open(write, header, 0, 100, 560)
        write(f'<text x="0" y="60" font-size="14" {_FONT}>no components in window</text>\n</svg>\n')
        return

    legend = [("#000000", "semistable: straight chord")] if chord else []
    legend += [
        (_color(i), f"m={m}: " + " ".join(format_types(f"({m}, ", ", ", ")", ell1s, ell2s, " ")))
        for i, (m, ell1s, ell2s) in enumerate(kept)
    ]
    y_values = [0, n * h2] + [m * h2 for m, _, _ in kept]
    y_hi = -max(y_values) * _Y_STEP  # smallest svg y of the plot
    y_lo = -min(y_values) * _Y_STEP
    legend_top = y_lo + 30
    top = y_hi - 50
    bottom = legend_top + 18 * len(legend) + 20
    width = max(560, 40 + 8 * max(len(label) for _, label in legend))
    _open(write, header, top, bottom, width)
    end = f"{2 * _X_STEP},{-n * h2 * _Y_STEP}"
    if chord:
        write(
            f'<line x1="0" y1="0" x2="{2 * _X_STEP}" y2="{-n * h2 * _Y_STEP}" '
            'stroke="#000000" stroke-width="2" stroke-dasharray="6 4"/>\n'
        )
    for i, (m, _, _) in enumerate(kept):
        write(
            f'<polyline points="0,0 {_X_STEP},{-m * h2 * _Y_STEP} {end}" '
            f'fill="none" stroke="{_color(i)}" stroke-width="2"/>\n'
        )
    for i, (color, label) in enumerate(legend):
        write(
            f'<text x="0" y="{legend_top + 18 * i}" font-size="13" '
            f'{_FONT} fill="{color}">{label}</text>\n'
        )
    write("</svg>\n")


def _color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def polygon_svg(s: Surface, v: MukaiVector, listings: list[tuple], m_max: int) -> str:
    """`write_polygon_svg` as one string."""
    parts: list[str] = []
    write_polygon_svg(parts.append, s, v, listings, m_max)
    return "".join(parts)
