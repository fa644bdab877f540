import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import helpers
from torustutte import (
    Placement,
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


def edge_lines(root):
    return [e for e in root.iter(f"{SVG}line") if e.get("class") == "edge"]


def clipped_pieces(svg_text, size=800):
    """Per data-edge, the pieces of the drawn lines inside the square, in
    pixels: each line clipped to [0, 1]^2 by the scalar clip."""
    pieces = {}
    for line in edge_lines(parse(svg_text)):
        x1, y1, x2, y2 = (float(line.get(a)) for a in ("x1", "y1", "x2", "y2"))
        clip = helpers._oracle_clip_segment((x1 / size, 1.0 - y1 / size), (x2 / size, 1.0 - y2 / size))
        edge = pieces.setdefault(line.get("data-edge"), [])
        if clip is not None:
            edge.append([(x * size, (1.0 - y) * size) for x, y in clip])
    return pieces


def reference_pieces(svg_text):
    """Per data-edge, the clipped pieces of the reference picture, in pixels."""
    root = parse(svg_text)
    return {
        g.get("data-edge"): [
            [(float(e.get("x1")), float(e.get("y1"))), (float(e.get("x2")), float(e.get("y2")))]
            for e in g
        ]
        for g in root.iter(f"{SVG}g")
    }


def near_border(piece, size):
    """The piece lies within half the stroke width, 0.7 px, of one side of the square."""
    return any(
        all(abs(point[axis] - side) <= 0.7 for point in piece)
        for axis in (0, 1)
        for side in (0.0, size)
    )


def assert_same_picture(mesh, placement, size=800, **kwargs):
    """The clipped lines show the reference picture's pieces within 0.01 px,
    plus four float spacings of ``size``, up to extra pieces along the border,
    and the same flipped faces and labels."""
    svg = render_svg(mesh, placement, size=size, **kwargs)
    reference = helpers.oracle_clipped_svg(mesh, placement, size=size, **kwargs)
    drawn = clipped_pieces(svg, size)
    expected = reference_pieces(reference)
    assert drawn.keys() == expected.keys()
    tol = 0.01 + size * 2.0**-50
    extra = 0
    for edge, pieces in expected.items():
        left = list(drawn[edge])
        for piece in pieces:
            match = [k for k, other in enumerate(left) if np.abs(np.subtract(other, piece)).max() <= tol]
            assert match, (edge, piece, drawn[edge])
            left.pop(match[0])
        assert all(near_border(piece, size) for piece in left), (edge, left)
        extra += len(left)
    others = [line for line in svg.splitlines() if 'class="edge"' not in line]
    reference_others = [line for line in reference.splitlines() if 'class="edge"' not in line]
    assert others[1:] == reference_others[1:]
    return extra


def test_svg_well_formed_and_complete(bumpy4):
    mesh, placement = bumpy4
    root = parse(render_svg(mesh, placement))
    assert root.tag == f"{SVG}svg"
    assert root.get("width") == "800"
    # the viewport clips the unclipped edge lines
    assert root.get("overflow") == "hidden"
    assert not [g for g in root.iter(f"{SVG}g") if g.get("class") == "edge"]
    seen = {e.get("data-edge") for e in edge_lines(root)}
    assert len(seen) == mesh.edge_count
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
    by_edge = {edge: len(pieces) for edge, pieces in clipped_pieces(render_svg(mesh, inside)).items()}
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
    """Per edge, the drawn lines' pieces in the square add up to the lifted edge length."""
    mesh, placement = bumpy4
    size = 800.0
    vecs = edge_vectors(mesh, placement)
    for edge, pieces in clipped_pieces(render_svg(mesh, placement)).items():
        i, j = (int(s) for s in edge.split("-"))
        k = helpers.edge_id(mesh, i, j)
        length = math.hypot(vecs[k][0], vecs[k][1])
        drawn = sum(math.hypot(q[0] - p[0], q[1] - p[1]) / size for p, q in pieces)
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
    """The record writer writes the scalar line loop's bytes, and the lines,
    clipped to the square, show the reference picture."""
    mesh3, seam = grid3
    folded = folded_grid3(grid3)
    rng = np.random.default_rng(12)
    diagonal = helpers.mesh_of(*helpers.random_diagonal_grid(12, rng))
    coords = helpers.grid_coords(12) + rng.uniform(-0.1, 0.1, (144, 2)) / 12
    coords[0] = 0.0
    # vertex 3 sits 5e-13 inside the seam x = 1: the reference drops the piece
    # shorter than 1e-12 that edge 3-4 leaves in the central square, and the
    # edges 0-3 and 3-6, written at x = -0.000, now show on the left border too
    grazing = seam.coords.copy()
    grazing[3] = [-5e-13, 1 / 3]
    grazing = Placement(grazing)
    # lifted edge 3 -> 4 is longer than 1, so its lift leaves the
    # neighbouring squares on the right
    long_edge = seam.coords.copy()
    long_edge[4] = [1.3, 1 / 3]
    # vertex 5 exactly on y = 1; vertex 4 at -1e-20 wraps to exactly (1, 1)
    on_seam = seam.coords.copy()
    on_seam[5] = [2 / 3, 1.0]
    on_seam[4] = [-1e-20, -1e-20]
    on_seam = Placement(on_seam)
    # the column x = 1e-20 is vertical; under the +1 translate x rounds to
    # exactly 1, so it is drawn on the right seam although min x > 0
    rounded = seam.coords.copy()
    rounded[[0, 3, 6], 0] = 1e-20
    # vertex 1 on vertex 0: edge 0-1 is a point at the corners, drawn as four
    # lines of length 0 that show no piece
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
    negative = perturb(*gen_grid(4), 0.1, seed=7)
    # edges out of vertex 5 at (1e100, -1e100) are cut to length 3; the nine
    # polygon clips of the scalar renderer leave degenerate flipped faces at
    # that scale where the box test skips the clip, so faces are left out
    far = grid4_place.coords.copy()
    far[5] = [1e100, -1e100]
    big, start = gen_grid(32)
    huge = gen_grid(101)
    cases = [
        # vertices on the seam lines: lines along the border, single-point pieces
        (grid3, {}),
        ((mesh3, Placement(long_edge)), {}),
        ((mesh3, on_seam), {}),
        ((mesh3, Placement(rounded)), {}),
        ((mesh3, Placement(rounded)), {"size": 1}),
        (bumpy4, {"size": 1}),
        ((big, perturb(big, start, 0.2, seed=5)), {}),
        ((mesh3, Placement(seam.coords + [0.11, 0.17])), {}),
        ((mesh3, grazing), {}),
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
        ((mesh4, Placement(far)), {"highlight_flipped": False}),
        ((mesh4, Placement(far)), {"size": render.MAX_SIZE, "highlight_flipped": False}),
        (bumpy3, {"size": 10**6}),
        (bumpy3, {"size": render.MAX_SIZE}),
        (bumpy3, {"size": np.int32(64)}),
    ]
    for (mesh, placement), kwargs in cases:
        expected = helpers.oracle_render_svg(mesh, placement, **kwargs)
        assert render_svg(mesh, placement, **kwargs) == expected, kwargs
        extra = assert_same_picture(mesh, placement, **kwargs)
        # a seam edge shows its half stroke on both borders instead of one
        assert extra == (2 if placement is on_seam or placement is grazing else 0), kwargs
    # the cases above reach what they are meant to
    assert 'data-edge="0-1" x1="0.000" y1="800.000" x2="0.000" y2="800.000"' in render_svg(
        mesh3, Placement(collapsed)
    )
    assert '"0.062"' in render_svg(mesh3, Placement(ties), size=1)
    assert 'data-edge="10199-10200"' in render_svg(*huge)
    corner = 'data-face="1" points="0.000,0.000 0.000,0.000 0.000,0.000 0.000,0.000"'
    assert corner in render_svg(mesh4, Placement(touching))
    assert 'x1="-600.000" y1="800.000" x2="1097.056" y2="2497.056"' in render_svg(mesh4, Placement(far))


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
    text = render._write_lines(ids, values, digits).decode()
    expected = "".join(
        render._LINE % (i, j, *v) + "\n" for (i, j), v in zip(ids.tolist(), values.tolist())
    )
    assert text == expected


def test_blocks_of_edge_groups_join_seamlessly(bumpy4, monkeypatch):
    """Writing the lines of a few edges per block writes the scalar renderer's bytes."""
    mesh, placement = bumpy4
    monkeypatch.setattr(render, "_BLOCK", 5)
    assert render_svg(mesh, placement) == helpers.oracle_render_svg(mesh, placement)


def test_render_memory_stays_near_output_size():
    """Writing the lines in blocks of edges keeps the peak within a few output sizes."""
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e-320, -1e-320])
@pytest.mark.parametrize("axis", [0, 1])
def test_subnormal_coordinate_clips_without_overflow(axis, value):
    """gen --size 4 --perturb 0.05 --seed 1 with vertex 1 moved to a subnormal
    x or y writes the scalar renderer's bytes, without a warning."""
    mesh, placement = gen_grid(4)
    coords = perturb(mesh, placement, 0.05, 1).coords.copy()
    coords[1, axis] = value
    moved = Placement(coords)
    svg = render_svg(mesh, moved)
    assert svg == helpers.oracle_render_svg(mesh, moved)
    # x of the edge 0-1 at 800 * -1e-320
    assert ('x2="-0.000"' in svg) == (axis == 0 and value < 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [800, render.MAX_SIZE])
@pytest.mark.parametrize("value", [1e100, -1e100])
def test_far_coordinate_keeps_pixel_values_bounded(size, value):
    """A coordinate of ±1e100 draws every line inside [-4 size, 5 size]."""
    mesh, placement = gen_grid(4)
    coords = perturb(mesh, placement, 0.05, 1).coords.copy()
    coords[5] = [value, -value]
    root = parse(render_svg(mesh, Placement(coords), size=size))
    lines = edge_lines(root)
    assert len({e.get("data-edge") for e in lines}) == mesh.edge_count
    px = np.array([[float(e.get(a)) for a in ("x1", "y1", "x2", "y2")] for e in lines])
    assert -4 * size <= px.min() and px.max() <= 5 * size
