"""SVG rendering: determinism, coordinate convention, layer composition."""

import pytest

from manhattan_pinball.configuration import constant, from_closed_sites
from manhattan_pinball.render import RenderSpec, render_svg
from manhattan_pinball.tracer import RayState, trace


def test_empty_lattice_only_is_byte_stable():
    c = constant(3, False)
    spec = RenderSpec(layers=("lattice",))
    a = render_svg(c, spec)
    b = render_svg(c, spec)
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert a.rstrip().endswith("</svg>")
    assert "<line" in a and "<polyline" not in a


def test_p1_loop_draws_closed_square():
    c = constant(4, True)
    t = trace(c, RayState((0, 0), 0))
    spec = RenderSpec(layers=("trajectory",), scale=10)
    svg = render_svg(c, spec, trajectory=t)
    # the closed 4-state loop renders as a closed polyline through
    # (0,0) (1,0) (1,-1) (0,-1) back to (0,0), with y negated
    assert 'points="0,0 10,0 10,10 0,10 0,0"' in svg


def test_mirror_glyph_orientation():
    # NE site (0, 0) slopes up, NW site (1, 0) slopes down (svg y inverted)
    c = from_closed_sites(2, [(0, 0), (1, 0)])
    svg = render_svg(c, RenderSpec(layers=("mirrors",), scale=10))
    assert '<line x1="-3.5" y1="3.5" x2="3.5" y2="-3.5"' in svg
    assert '<line x1="6.5" y1="-3.5" x2="13.5" y2="3.5"' in svg


def test_witness_and_match_layers():
    svg = render_svg(
        constant(3, False),
        RenderSpec(layers=("circuit_witness",), scale=10),
        witness=[(0.5, 0.5), (1.5, 1.5), (2.5, 0.5), (1.5, -0.5)],
    )
    # one polyline, closed back to its first vertex, with y negated
    assert svg.count("<polyline") == 1
    assert 'points="5,-5 15,-15 25,-5 15,5 5,-5"' in svg


def test_trajectory_extent_mismatch_rejected():
    big = constant(9, True)
    t = trace(big, RayState((8, 0), 0))
    with pytest.raises(ValueError, match="extent"):
        render_svg(constant(3, False), RenderSpec(layers=("trajectory",)),
                   trajectory=t)


def test_unknown_layer_rejected():
    with pytest.raises(ValueError, match="unknown layer"):
        RenderSpec(layers=("glitter",))
