import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import helpers
from torustutte import (
    Placement,
    build_mesh,
    edge_vectors,
    face_signed_areas,
    gen_grid,
    perturb,
    render_svg,
)
from torustutte import render

SVG = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def edge_groups(root):
    return [g for g in root.iter(f"{SVG}g") if g.get("class") == "edge"]


def test_svg_well_formed_and_complete(bumpy4):
    mesh, placement = bumpy4
    root = parse(render_svg(mesh, placement))
    assert root.tag == f"{SVG}svg"
    assert root.get("width") == "800"
    groups = edge_groups(root)
    assert len(groups) == mesh.edge_count
    seen = {g.get("data-edge") for g in groups}
    expected = {
        f"{i}-{j}" for i, j in (tuple(e) for e in mesh.directed_edges) if i < j
    }
    assert seen == expected
    # an embedded placement draws no flipped-face highlights
    assert not [p for p in root.iter(f"{SVG}polygon")]


def test_svg_size_and_labels(grid3):
    mesh, placement = grid3
    root = parse(render_svg(mesh, placement, size=400, labels=True))
    assert root.get("width") == "400" and root.get("height") == "400"
    texts = list(root.iter(f"{SVG}text"))
    assert len(texts) == 9
    assert {t.text for t in texts} == {str(v) for v in range(9)}


def test_labels_wrap_into_the_square(grid3):
    """A tiny negative coordinate wraps to 0, not to the far edge of the square."""
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-1e-20, 0.5]
    root = parse(render_svg(mesh, Placement(coords), labels=True))
    texts = {t.text: t for t in root.iter(f"{SVG}text")}
    assert (texts["4"].get("x"), texts["4"].get("y")) == ("4.0", "396.0")
    assert all(float(t.get("x")) < 800 for t in texts.values())


def test_svg_deterministic(bumpy3):
    mesh, placement = bumpy3
    assert render_svg(mesh, placement) == render_svg(mesh, placement)


def test_segment_counts_by_seam_class(grid3):
    """A wrap-free placement splits every edge by its seam crossings."""
    mesh, placement = grid3
    inside = Placement(placement.coords + [0.11, 0.17])
    root = parse(render_svg(mesh, inside))
    by_edge = {g.get("data-edge"): len(list(g)) for g in edge_groups(root)}
    histogram = {}
    for k, (i, j) in enumerate(mesh.directed_edges):
        if i >= j:
            continue
        crossings = int(np.abs(mesh.shifts[k]).sum())
        expected = 1 + crossings
        actual = by_edge[f"{i}-{j}"]
        assert actual == expected, (i, j, tuple(mesh.shifts[k]))
        histogram[expected] = histogram.get(expected, 0) + 1
    assert histogram == {1: 16, 2: 10, 3: 1}


def test_segments_cover_each_edge(bumpy4):
    """Per edge, the drawn pieces add up to the lifted edge length."""
    mesh, placement = bumpy4
    size = 800.0
    vecs = edge_vectors(mesh, placement)
    root = parse(render_svg(mesh, placement))
    for g in edge_groups(root):
        i, j = (int(s) for s in g.get("data-edge").split("-"))
        k = helpers.edge_id(mesh, i, j)
        length = math.hypot(vecs[k][0], vecs[k][1])
        drawn = 0.0
        for line in g:
            x1, y1 = float(line.get("x1")), float(line.get("y1"))
            x2, y2 = float(line.get("x2")), float(line.get("y2"))
            drawn += math.hypot(x2 - x1, y2 - y1) / size
        assert abs(drawn - length) <= 1e-4, (i, j)


def folded_grid3(grid3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    return mesh, Placement(coords)


def test_flipped_faces_highlighted(grid3):
    mesh, folded = folded_grid3(grid3)
    areas = face_signed_areas(mesh, folded)
    flipped = {str(fi) for fi in np.nonzero(areas < 0)[0]}
    assert flipped
    root = parse(render_svg(mesh, folded))
    polys = [p for p in root.iter(f"{SVG}polygon") if p.get("class") == "flipped"]
    assert {p.get("data-face") for p in polys} == flipped
    quiet = parse(render_svg(mesh, folded, highlight_flipped=False))
    assert not list(quiet.iter(f"{SVG}polygon"))


def test_y_axis_points_up(grid3):
    """Vertex labels near the bottom edge get large pixel y values."""
    mesh, placement = grid3
    root = parse(render_svg(mesh, placement, labels=True))
    y_by_label = {
        t.text: float(t.get("y")) for t in root.iter(f"{SVG}text")
    }
    # vertex 0 sits at torus (0, 0): pixel y near the bottom (size)
    assert y_by_label["0"] > 700
    # vertex 6 sits at (0, 2/3): higher up the canvas
    assert y_by_label["6"] < y_by_label["0"]


@pytest.mark.parametrize(
    "size", [0, -5, 2.5, 800.0, True, False, "800", None, render.MAX_SIZE + 1]
)
def test_non_positive_size_rejected(grid3, size):
    mesh, placement = grid3
    with pytest.raises(ValueError, match="size must be a positive integer"):
        render_svg(mesh, placement, size=size)


def test_matches_scalar_renderer(grid3, grid4, bumpy3, bumpy4, k7):
    """Vectorized clipping writes the same bytes as nine scalar clips per edge."""
    mesh3, seam = grid3
    folded = folded_grid3(grid3)
    rng = np.random.default_rng(12)
    diagonal = build_mesh(*helpers.random_diagonal_grid(12, rng))
    coords = helpers.grid_coords(12) + rng.uniform(-0.1, 0.1, (144, 2)) / 12
    coords[0] = 0.0
    # vertex 3 sits 5e-13 inside the seam x = 1: the edge 3-4 leaves a
    # piece shorter than 1e-12 in the central square, which is dropped
    grazing = seam.coords.copy()
    grazing[3] = [-5e-13, 1 / 3]
    # lifted edge 3 -> 4 is longer than 1, so its lift leaves the
    # neighbouring squares on the right
    long_edge = seam.coords.copy()
    long_edge[4] = [1.3, 1 / 3]
    # vertex 5 exactly on y = 1; vertex 4 at -1e-20 wraps to exactly (1, 1)
    on_seam = seam.coords.copy()
    on_seam[5] = [2 / 3, 1.0]
    on_seam[4] = [-1e-20, -1e-20]
    # the column x = 1e-20 is vertical; under the +1 translate x rounds to
    # exactly 1, so it leaves pieces on the right seam although min x > 0
    rounded = seam.coords.copy()
    rounded[[0, 3, 6], 0] = 1e-20
    # vertex 1 on vertex 0: edge 0-1 has no piece, an empty group
    collapsed = seam.coords.copy()
    collapsed[1] = 0.0
    # pixel values on ties of %.3f at size 1: 0.0625 -> 0.062, 0.6875 -> 0.688
    ties = seam.coords.copy()
    ties[4] = [0.0625, 0.3125]
    # flipped face 1 lies in x <= 0, y >= 0 with max x = 0 and min y = 0: under
    # the (0, 1) translate its box only touches the square's corner (0, 1),
    # and the clip leaves four points there
    mesh4, grid4_place = grid4
    touching = grid4_place.coords.copy()
    touching[5] = [-0.125, 0.0]
    # the clip leaves one x of -1.4e-17, written -0.000
    negative = perturb(*gen_grid(4), 0.1, seed=7)
    big, start = gen_grid(32)
    huge = gen_grid(101)
    cases = [
        # vertices on the seam lines: den == 0 with num == 0, single-point pieces
        (grid3, {}),
        ((mesh3, Placement(long_edge)), {}),
        ((mesh3, Placement(on_seam)), {}),
        ((mesh3, Placement(rounded)), {}),
        ((mesh3, Placement(rounded)), {"size": 1}),
        (bumpy4, {"size": 1}),
        ((big, perturb(big, start, 0.2, seed=5)), {}),
        ((mesh3, Placement(seam.coords + [0.11, 0.17])), {}),
        ((mesh3, Placement(grazing)), {}),
        (bumpy3, {}),
        (bumpy4, {}),
        (k7, {}),
        (folded, {}),
        (folded, {"highlight_flipped": False}),
        ((diagonal, Placement(coords)), {}),
        (bumpy4, {"size": 400, "labels": True}),
        ((mesh3, Placement(collapsed)), {}),
        ((mesh3, Placement(ties)), {"size": 1}),
        ((gen_grid(4)[0], negative), {"size": 1}),
        (huge, {}),
        ((mesh4, Placement(touching)), {}),
        (bumpy3, {"size": 10**6}),
        (bumpy3, {"size": render.MAX_SIZE}),
        (bumpy3, {"size": np.int32(64)}),
    ]
    for (mesh, placement), kwargs in cases:
        expected = helpers.oracle_render_svg(mesh, placement, **kwargs)
        assert render_svg(mesh, placement, **kwargs) == expected, kwargs
    # the cases above reach what they are meant to
    assert '<g class="edge" data-edge="0-1"></g>' in render_svg(mesh3, Placement(collapsed))
    assert '"0.062"' in render_svg(mesh3, Placement(ties), size=1)
    assert '"-0.000"' in render_svg(gen_grid(4)[0], negative, size=1)
    assert 'data-edge="10199-10200"' in render_svg(*huge)
    corner = 'data-face="1" points="0.000,0.000 0.000,0.000 0.000,0.000 0.000,0.000"'
    assert corner in render_svg(mesh4, Placement(touching))


def test_numbers_match_percent_format():
    """The byte writer prints what %.3f and %d print, on ties and signed zeros too."""
    rng = np.random.default_rng(3)
    values = np.concatenate([
        [-1e-17, -0.0, 0.0, 0.0625, 0.0005, 0.0015, 999.9995, 1e6 - 5e-4, 2.5e-4, 1e15, 1.5, -2.25],
        rng.integers(0, 2**24, 200) / 2**11,
        (rng.integers(0, 10**7, 200) + 0.5) / 1000 + rng.normal(0, 1e-12, 200),
        rng.uniform(-1e-3, 1e3, 200),
    ]).reshape(-1, 4)
    ids = rng.integers(0, 12345, (len(values), 2))
    ids[0] = [0, 12344]
    digits = render._decimal(np.arange(12345))
    text = render._write_groups(ids, np.ones(len(values), dtype=int), values, digits).decode()
    expected = "".join(
        f'<g class="edge" data-edge="{i}-{j}">' + render._LINE % tuple(v) + "</g>\n"
        for (i, j), v in zip(ids.tolist(), values.tolist())
    )
    assert text == expected


def test_blocks_of_edge_groups_join_seamlessly(bumpy4, monkeypatch):
    """Formatting a few edge groups per % writes the scalar renderer's bytes."""
    mesh, placement = bumpy4
    monkeypatch.setattr(render, "_BLOCK", 5)
    assert render_svg(mesh, placement) == helpers.oracle_render_svg(mesh, placement)


def test_render_memory_stays_near_output_size():
    """Clipping and formatting in blocks of edges keeps the peak within a few output sizes."""
    mesh, placement = gen_grid(64)
    placement = perturb(mesh, placement, 0.1, seed=3)
    render_svg(mesh, placement)
    tracemalloc.start()
    try:
        svg = render_svg(mesh, placement)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * len(svg), peak / len(svg)
