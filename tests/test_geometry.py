import math

import numpy as np
import pytest

import helpers
from torustutte import (
    Placement,
    edge_vectors,
    face_signed_areas,
    verify_embedding,
    vertex_angle_defects,
)
from torustutte.geometry import MAX_COORD, _corner_angles


def corner_angles(mesh, placement):
    """Inner angles, (F, 3) in face vertex order, from the whole-mesh kernel."""
    return _corner_angles(edge_vectors(mesh, placement)[mesh.face_edges])


# ---------------------------------------------------------------------------
# Placement validation

def test_placement_basics():
    p = Placement([[0.0, 0.0], [0.5, 0.25]])
    assert p.anchored
    assert len(p) == 2
    q = Placement([[0.1, 0.0], [0.5, 0.25]])
    assert not q.anchored


def test_placement_rejects_bad_shape():
    with pytest.raises(ValueError):
        Placement([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        Placement([0.0, 1.0])


def test_placement_rejects_nonfinite():
    with pytest.raises(ValueError):
        Placement([[0.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError):
        Placement([[0.0, 0.0], [np.inf, 1.0]])


def test_placement_coordinates_at_the_bound(grid4):
    """MAX_COORD is accepted, with finite areas and angles under the suite's
    RuntimeWarning filter; the next float up is rejected, naming it."""
    mesh, placement = grid4
    coords = placement.coords.copy()
    coords[5] = [MAX_COORD, -MAX_COORD]
    report = verify_embedding(mesh, Placement(coords))
    assert np.isfinite(report.face_areas).all() and math.isfinite(report.total_area)
    assert np.isfinite(vertex_angle_defects(mesh, Placement(coords))).all()
    coords[5, 1] = -np.nextafter(MAX_COORD, np.inf)
    with pytest.raises(ValueError, match="^coordinate -1.0000000000000002e\\+100 of vertex 5 "):
        Placement(coords)


def test_size_mismatch_rejected(grid3):
    mesh, _ = grid3
    with pytest.raises(ValueError):
        edge_vectors(mesh, Placement(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# Lifted edge vectors

def test_edge_vectors_grid_values(grid3):
    mesh, placement = grid3
    third = 1.0 / 3.0
    vecs = edge_vectors(mesh, placement)
    # interior edge 0 -> 1 goes one step right
    assert np.allclose(vecs[helpers.edge_id(mesh, 0, 1)], [third, 0.0], atol=1e-15)
    # seam edge 2 -> 0 wraps and still goes right
    assert np.array_equal(mesh.shifts[helpers.edge_id(mesh, 2, 0)], [1, 0])
    assert np.allclose(vecs[helpers.edge_id(mesh, 2, 0)], [third, 0.0], atol=1e-15)
    # diagonal seam edge 8 -> 0 crosses both seams
    assert np.array_equal(mesh.shifts[helpers.edge_id(mesh, 8, 0)], [1, 1])
    assert np.allclose(vecs[helpers.edge_id(mesh, 8, 0)], [third, third], atol=1e-15)


def test_edge_vectors_antisymmetric(grid4, k7):
    for mesh, placement in (grid4, k7):
        vecs = edge_vectors(mesh, placement)
        assert np.allclose(vecs, -vecs[mesh.reverse_index], atol=0)


def test_edge_vector_lengths_uniform(grid3):
    mesh, placement = grid3
    vecs = edge_vectors(mesh, placement)
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    axis = lengths[np.abs(mesh.shifts).sum(axis=1) != 2]
    # axis edges have length 1/3, diagonals sqrt(2)/3
    for k, (i, j) in enumerate(mesh.directed_edges):
        vec = vecs[k]
        expected = math.sqrt(2.0) / 3.0 if vec[0] != 0 and vec[1] != 0 else 1.0 / 3.0
        assert math.hypot(vec[0], vec[1]) == pytest.approx(expected, abs=1e-15)
    assert axis.size > 0


# ---------------------------------------------------------------------------
# Signed areas

def test_grid_face_areas(grid3):
    mesh, placement = grid3
    areas = face_signed_areas(mesh, placement)
    assert areas.shape == (18,)
    assert np.allclose(areas, 1.0 / 18.0, atol=1e-15)
    assert areas[0] == pytest.approx(1 / 18, abs=1e-15)


def test_areas_match_shoelace_oracle(grid3, bumpy4, k7):
    for mesh, placement in (grid3, bumpy4, k7):
        areas = face_signed_areas(mesh, placement)
        oracle = helpers.oracle_face_areas(mesh, placement)
        assert np.allclose(areas, oracle, atol=1e-14)


def test_total_area_is_integer_for_random_coords(grid4, rng):
    """Signed areas tile the torus: the total is the winding degree."""
    mesh, placement = grid4
    for _ in range(20):
        coords = placement.coords + rng.uniform(-1.0, 2.0, (16, 2))
        report = verify_embedding(mesh, Placement(coords))
        assert abs(report.total_area - round(report.total_area)) < 1e-9
        oracle = helpers.oracle_face_areas(mesh, Placement(coords))
        assert report.total_area == pytest.approx(float(oracle.sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# Angles

def test_grid_corner_angles(grid3):
    mesh, placement = grid3
    # face (0, 1, 4): right triangle with legs 1/3
    face_index = next(
        fi for fi, f in enumerate(mesh.faces) if tuple(f) == (0, 1, 4)
    )
    # corners in face vertex order: at 0, at 1, at 4
    angles = corner_angles(mesh, placement)[face_index]
    assert angles == pytest.approx([math.pi / 4, math.pi / 2, math.pi / 4])


def test_face_angle_sums(bumpy4):
    mesh, placement = bumpy4
    totals = corner_angles(mesh, placement).sum(axis=1)
    assert np.allclose(totals, math.pi, atol=1e-12, rtol=0)


def test_degenerate_face_rejected(grid3):
    """A face squashed to zero area fails the embedding certificate."""
    mesh, placement = grid3
    coords = placement.coords.copy()
    face_index = next(
        fi for fi, f in enumerate(mesh.faces) if tuple(f) == (0, 1, 4)
    )
    coords[4] = [2.0 / 3.0, 0.0]  # collinear with 0 and 1
    squashed = Placement(coords)
    assert abs(face_signed_areas(mesh, squashed)[face_index]) < 1e-15
    report = verify_embedding(mesh, squashed)
    assert not report.is_embedding
    assert report.min_area <= abs(report.face_areas[face_index])


# ---------------------------------------------------------------------------
# Embedding certificate

def test_grid_certificate(grid3):
    mesh, placement = grid3
    report = verify_embedding(mesh, placement)
    assert report.is_embedding
    assert report.degree == 1
    assert report.total_area == pytest.approx(1.0, abs=1e-12)
    assert report.min_area == pytest.approx(1 / 18, abs=1e-15)
    assert np.allclose(vertex_angle_defects(mesh, placement), 0.0, atol=1e-9)


def test_certificate_on_fixtures(grid4, grid5, grid6, k7, bumpy3, bumpy4):
    for mesh, placement in (grid4, grid5, grid6, k7, bumpy3, bumpy4):
        report = verify_embedding(mesh, placement)
        assert report.is_embedding
        assert report.degree == 1
        assert np.allclose(vertex_angle_defects(mesh, placement), 0.0, atol=1e-9)


def test_gauss_bonnet(bumpy4):
    """Angles over all faces total pi*F on any non-degenerate placement."""
    mesh, placement = bumpy4
    angle_total = 2.0 * math.pi * mesh.vertex_count - float(
        vertex_angle_defects(mesh, placement).sum()
    )
    assert angle_total == pytest.approx(math.pi * len(mesh.faces), abs=1e-8)


def test_nudged_vertex_stays_embedded(grid3):
    """Small motion inside the vertex star keeps the certificate green."""
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [0.05, 0.05]
    report = verify_embedding(mesh, Placement(coords))
    assert report.is_embedding
    assert report.min_area > 0


def test_flipped_vertex_breaks_embedding(grid3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]  # drag the center vertex out of its star
    report = verify_embedding(mesh, Placement(coords))
    assert not report.is_embedding
    assert report.min_area < 0
    # total signed area is a homotopy invariant: still 1 despite folds
    assert report.total_area == pytest.approx(1.0, abs=1e-9)
    assert report.degree == 1
    oracle = helpers.oracle_face_areas(mesh, Placement(coords))
    assert report.min_area == pytest.approx(float(oracle.min()), abs=1e-14)


def test_total_area_constant_in_coords(grid3, rng):
    """With shifts fixed, any placement of the mesh has degree one."""
    mesh, placement = grid3
    for _ in range(10):
        coords = rng.normal(0.0, 1.0, (9, 2))
        report = verify_embedding(mesh, Placement(coords))
        assert report.total_area == pytest.approx(1.0, abs=1e-9)


def test_doubled_shifts_give_degree_four(grid3):
    """Doubling the shifts doubles both winding classes: a 4-fold cover."""
    mesh, placement = grid3
    doubled = {}
    for k, (i, j) in enumerate(mesh.directed_edges):
        if i < j:
            doubled[(int(i), int(j))] = tuple(2 * int(x) for x in mesh.shifts[k])
    covering = helpers.mesh_of([tuple(f) for f in mesh.faces], doubled)
    report = verify_embedding(covering, Placement(2.0 * placement.coords))
    assert not report.is_embedding  # every face positive, wrong total
    assert report.min_area > 0
    assert report.degree == 4
    assert report.total_area == pytest.approx(4.0, abs=1e-9)
