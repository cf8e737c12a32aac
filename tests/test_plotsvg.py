import math
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmpath.plotsvg import MAX_POLYLINE, _polylines, render_compare_svg, render_trace_svg
from swarmpath.simulator import CONVENTIONAL_APF, SWARMPATH, run
from conftest import one_pole_spec


def test_trace_svg_is_well_formed_xml():
    trace = run(one_pole_spec(), SWARMPATH)
    svg = render_trace_svg(trace)
    root = ElementTree.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "swarmpath (adaptive links), outcome: completed" in svg
    assert "polyline" in svg


def test_trace_svg_marks_linked_spans():
    trace = run(one_pole_spec(), SWARMPATH)
    svg = render_trace_svg(trace)
    # Obstacle-linked stretches are overdrawn in the link color.
    assert "#2ca02c" in svg


def test_trace_svg_deterministic():
    trace = run(one_pole_spec(), SWARMPATH)
    assert render_trace_svg(trace) == render_trace_svg(trace)


def test_compare_svg_stacks_two_panels():
    spec = one_pole_spec()
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    svg = render_compare_svg(sp, base)
    ElementTree.fromstring(svg)
    assert svg.count("<g") >= 2
    assert "conventional" in svg.lower()


# A frame whose pixels are the world coordinates, so a test picks the pixels.
IDENTITY = SimpleNamespace(px=lambda x, y: (x, y))
EDGES = [(-0.004, 2.675), (-0.0, 0.125), (0.375, 1.005), (1e6, -1e6), (-0.005, 1.115)]
LONG = np.column_stack((np.linspace(-3.0, 7.0, 2 * MAX_POLYLINE + 2),
                        np.linspace(0.0, -0.01, 2 * MAX_POLYLINE + 2)))


@pytest.mark.parametrize("points, kept", [
    (EDGES, EDGES),
    (EDGES[:1], EDGES[:1]),
    # Stride 2 drops the last point, so it is appended.
    (LONG, [*LONG[::2], LONG[-1]]),
])
def test_polyline_formats_every_point_as_per_point_format(points, kept):
    text = _polylines(IDENTITY, [(np.array(points, dtype=float), 'stroke="#111"')])[0]
    coords = " ".join("{:.2f},{:.2f}".format(x, y) for x, y in kept)
    assert text == f'<polyline points="{coords}" fill="none" stroke="#111"/>'


# A pixel: any float, one on the table's range, or a multiple of 0.005, a
# tie or next to one.
PIXELS = st.one_of(st.floats(), st.floats(0.0, 1e4),
                   st.integers(0, 2_000_000).map(lambda n: n / 200))
SUBNORMAL = 5e-324


@settings(max_examples=300)
@given(st.lists(st.tuples(PIXELS, PIXELS), min_size=1, max_size=40))
@example([(0.125, 0.375), (2.675, 0.0)])
@example([(-0.0, -0.004), (0.004, 0.005)])
@example([(9999.995, math.nextafter(1e4, 0.0)), (1e4, 1e6)])
@example([(math.nan, math.inf), (-math.inf, 1.0)])
@example([(SUBNORMAL, -SUBNORMAL)])
def test_polyline_text_is_format_of_every_float(points):
    text = _polylines(IDENTITY, [(np.array(points, dtype=float), 'stroke="#111"')])[0]
    coords = " ".join("{:.2f},{:.2f}".format(x, y) for x, y in points)
    assert text == f'<polyline points="{coords}" fill="none" stroke="#111"/>'


def test_polyline_edge_pixels_keep_their_text():
    text = _polylines(IDENTITY, [(np.array(EDGES), "")])[0]
    assert text.split('"')[1] == ("-0.00,2.67 -0.00,0.12 0.38,1.00 "
                                  "1000000.00,-1000000.00 -0.01,1.11")
