from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.polygon import polygon_svg
from moduli_atlas.torsion_free import tf_listings

S2 = Surface(2)


def _svg(v, m_max, threshold=1):
    listings = tf_listings(S2, v, m_max, threshold)
    return polygon_svg(S2, v, listings, m_max)


def test_rigid_vector_picture():
    svg = _svg(MukaiVector(2, 3, 5), 3)
    # one chord for the semistable locus, one polygon per sub-degree
    assert svg.count("<line ") == 1
    assert svg.count("<polyline ") == 2
    assert 'points="0,0 120,-24 240,-36"' in svg  # m=2 kink at 2*h2*y_step
    assert 'points="0,0 120,-36 240,-36"' in svg  # m=3 kink level with the end
    assert "m=2: (2, 0, 2) (2, 1, 1) (2, 2, 0)" in svg
    assert "m=3:" in svg
    assert "semistable: straight chord" in svg
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_header_escapes_window():
    svg = _svg(MukaiVector(2, 3, 5), 3)
    assert "window m&lt;=3" in svg
    assert "window m<=3" not in svg


def test_empty_window_banner():
    svg = _svg(MukaiVector(2, 3, 9), 2)
    assert "no components in window" in svg
    assert "<polyline " not in svg
    assert "<line " not in svg


def test_chord_only_when_strata_absorbed():
    svg = _svg(MukaiVector(2, 0, -4), 0)
    assert svg.count("<line ") == 1
    assert "<polyline " not in svg


def test_absorbed_strata_reappear_with_lenient_threshold():
    svg = _svg(MukaiVector(2, 0, -4), 0, threshold=4)
    assert svg.count("<polyline ") == 1
    assert "m=0: (0, 0, 6) (0, 1, 5) (0, 2, 4)" in svg


def test_output_is_deterministic():
    assert _svg(MukaiVector(2, 3, 5), 3) == _svg(MukaiVector(2, 3, 5), 3)
    assert _svg(MukaiVector(2, 3, 9), 2) == _svg(MukaiVector(2, 3, 9), 2)
