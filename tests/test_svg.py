import xml.etree.ElementTree as ET

import pytest

from shiftlab.svg import Overlay, PlotStyle, emit_plot, render_scatter


def test_three_points_three_circles():
    content = render_scatter([(0.1, 0.2), (0.5, 0.5), (0.9, 0.8)])
    assert content.count("<circle") == 3


def test_no_overlays_no_polylines():
    content = render_scatter([(0.3, 0.3)], overlays=[])
    assert "<polyline" not in content


def test_overlays_render_as_polylines():
    overlays = [Overlay("fit", [(0.0, 0.1), (0.5, 0.4), (1.0, 0.9)], color="#d62728"),
                Overlay("spline", [(0.0, 0.2), (1.0, 0.8)], color="#123456")]
    content = render_scatter([(0.5, 0.5)], overlays=overlays)
    assert content.count("<polyline") == 2
    assert "#123456" in content


def test_empty_points_rejected():
    with pytest.raises(ValueError):
        render_scatter([])


def test_valid_xml_and_size_for_large_cloud(tmp_path):
    points = [((i % 100) / 100.0, (i % 97) / 97.0) for i in range(500)]
    path = tmp_path / "moon.svg"
    emit_plot(points, None, PlotStyle(title="sweep"), path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert path.stat().st_size < 2_000_000


def test_axis_ticks_at_tenths():
    content = render_scatter([(0.5, 0.5)])
    for label in ("0", "0.1", "0.5", "0.9", "1"):
        assert f">{label}</text>" in content


def test_extra_groups_add_circles():
    content = render_scatter([(0.5, 0.5)],
                             extra_groups=[([(0.1, 0.1), (0.2, 0.2)], "#ff0000", "pairs")])
    assert content.count("<circle") == 3
    assert "pairs" in content


def test_deterministic_output():
    pts = [(0.25, 0.75), (0.75, 0.25)]
    assert render_scatter(pts) == render_scatter(pts)
