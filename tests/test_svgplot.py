"""SVG plots: log-y decade ticks, positive points only, phase-map cells."""

import xml.etree.ElementTree as ET

from prismnet import svgplot

SVG = "{http://www.w3.org/2000/svg}"


def elements(root, tag):
    return list(root.iter(SVG + tag))


def test_figure_log_axis_and_points():
    fig = svgplot.Figure(title="outage", x_label="node density", y_label="P_out")
    fig.add([1, 2, 3, 4], [1e-3, 1e-2, 0.0, 1e-1], "line")
    fig.add(
        [1, 2, 3, 4], [2e-3, -1.0, 5e-2, 0.0], "dots", style="dots", yerr=[1e-3, 0.5, 1e-2, 0.1]
    )
    root = ET.fromstring(fig.render())
    texts = [e.text for e in elements(root, "text")]
    # y spans 1e-3..1e-1, padded by 5%: the three decades inside the frame.
    assert [t for t in texts if t.startswith("1e")] == ["1e-3", "1e-2", "1e-1"]
    assert {"outage", "node density", "P_out", "line", "dots"} <= set(texts)
    # The line runs through its three positive points only.
    (path,) = elements(root, "path")
    assert path.get("d").count("L") == 2 and path.get("d").startswith("M")
    # One dot and one error bar per positive dot point; none for y <= 0.
    assert len(elements(root, "circle")) == 2
    bars = [e for e in elements(root, "line") if e.get("stroke-width") == "1"]
    assert len(bars) == 2


def test_phase_map_one_rect_per_cell(tmp_path):
    # A 3 x 2 (rho x L) grid, row-major in L then rho as phase_map gives it.
    cells = [
        (0.5, 1.0, "bulk"), (1.0, 1.0, "face"), (2.0, 1.0, "edge"),
        (0.5, 2.0, "corner"), (1.0, 2.0, "corner"), (2.0, 2.0, "edge"),
    ]
    labels = [c[2] for c in cells]
    svgplot.phase_map_svg(cells, tmp_path / "map.svg")
    root = ET.parse(tmp_path / "map.svg").getroot()
    # Besides the cells: the white background and four 12x12 legend swatches.
    rects = [r for r in elements(root, "rect") if r.get("width") not in (str(svgplot.WIDTH), "12")]
    colors = {"bulk": "#1f77b4", "face": "#d62728", "edge": "#2ca02c", "corner": "#e7c800"}
    assert [r.get("fill") for r in rects] == [colors[lab] for lab in labels]
    assert {"node density", "L"} <= {e.text for e in elements(root, "text")}
