import math

import numpy as np
import pytest

import helpers

from torustutte import (
    DiscreteOneForm,
    Placement,
    direction_form,
    generic_direction_form,
    index_theorem_check,
)
from torustutte.errors import DegenerateVertexError


def antisymmetric_fill(mesh, base=0.5):
    """Arbitrary nonvanishing antisymmetric values, +base on i < j."""
    values = np.zeros(len(mesh.directed_edges))
    for k, (i, j) in enumerate(mesh.directed_edges):
        values[k] = base if i < j else -base
    return values


def with_vertex_pattern(mesh, v, pattern):
    """Override the outgoing values at v (and their reverses) by pattern."""
    values = antisymmetric_fill(mesh)
    for u, val in zip(helpers.ring(mesh, v), pattern):
        values[helpers.edge_id(mesh, v, u)] = val
        values[helpers.edge_id(mesh, u, v)] = -val
    return DiscreteOneForm(values)


# ---------------------------------------------------------------------------
# Construction

def test_direction_form_grid_values(grid3):
    mesh, placement = grid3
    form = direction_form(mesh, placement, np.array([1.0, 0.0]))
    third = 1.0 / 3.0
    assert form.values[helpers.edge_id(mesh, 0, 1)] == pytest.approx(third, abs=1e-15)
    assert form.values[helpers.edge_id(mesh, 1, 0)] == pytest.approx(-third, abs=1e-15)
    # vertical edges vanish under the horizontal direction
    assert form.values[helpers.edge_id(mesh, 0, 3)] == pytest.approx(0.0, abs=1e-15)
    # diagonal edges project like horizontal ones
    assert form.values[helpers.edge_id(mesh, 0, 4)] == pytest.approx(third, abs=1e-15)


def test_direction_form_closed_on_faces(bumpy4):
    mesh, placement = bumpy4
    form = direction_form(mesh, placement, np.array([math.cos(0.3), math.sin(0.3)]))
    sums = form.values[mesh.face_edges].sum(axis=1)
    assert np.abs(sums).max() <= 1e-15


def dict_values(mesh, mapping):
    """Edge positions of an ``{(i, j): value}`` mapping by ``edge_ids``, and its values."""
    i, j = np.array(list(mapping), dtype=np.int64).reshape(-1, 2).T
    return mesh.edge_ids(i, j), np.array(list(mapping.values()))


def test_from_dict_round_trip(grid3):
    mesh, _ = grid3
    values = antisymmetric_fill(mesh, base=0.75)
    pos, given = dict_values(mesh, dict(reversed(helpers.edge_mapping(mesh, values).items())))
    rebuilt = np.empty_like(values)
    rebuilt[pos] = given
    assert np.array_equal(rebuilt, values)
    assert np.array_equal(rebuilt, -rebuilt[mesh.reverse_index])


def test_from_dict_rejects_non_edges_and_gaps(grid3):
    """A non-edge key has no position, and a dropped key leaves its edge uncovered."""
    mesh, _ = grid3
    mapping = helpers.edge_mapping(mesh, antisymmetric_fill(mesh))
    pos, _ = dict_values(mesh, {**mapping, (0, 99): 1.0})
    assert pos[-1] == -1 and (pos[:-1] >= 0).all()
    del mapping[(1, 0)]
    pos, _ = dict_values(mesh, mapping)
    covered = np.bincount(pos, minlength=len(mesh.directed_edges))
    assert covered.tolist().index(0) == helpers.edge_id(mesh, 1, 0)
    assert covered.max() == 1


# ---------------------------------------------------------------------------
# Sign changes and indices

# The index of a cell with sc cyclic sign changes is (2 - sc) / 2.

def test_vertex_sign_patterns(k7):
    mesh, _ = k7
    form = with_vertex_pattern(mesh, 0, [1, 1, 1, -1, -1, -1])
    assert index_theorem_check(mesh, form).vertex_indices[0] == 0  # sc = 2

    form = with_vertex_pattern(mesh, 0, [1, -1, 1, -1, 1, -1])
    assert index_theorem_check(mesh, form).vertex_indices[0] == -2  # sc = 6

    form = with_vertex_pattern(mesh, 0, [1, 1, -1, -1, 1, -1])
    assert index_theorem_check(mesh, form).vertex_indices[0] == -1  # sc = 4


def test_vertex_zeros_are_skipped(k7):
    mesh, _ = k7
    form = with_vertex_pattern(mesh, 0, [1, 0, -1, 0, 1, -1])
    # nonzero cycle (+, -, +, -) has four alternations
    report = index_theorem_check(mesh, form)
    assert report.vertex_indices[0] == -1
    assert report.degenerate_vertices == []


def test_degenerate_vertex_rejected(k7):
    """A vertex whose values all vanish has no index."""
    mesh, _ = k7
    form = with_vertex_pattern(mesh, 0, [0, 0, 0, 0, 0, 0])
    report = index_theorem_check(mesh, form)
    assert report.vertex_indices[0] is None
    assert report.degenerate_vertices == [0]
    assert not report.nonvanishing


def face_form(mesh, face_index, triple):
    """Antisymmetric form with given values on one face boundary."""
    values = antisymmetric_fill(mesh)
    for k, val in zip(mesh.face_edges[face_index], triple):
        values[k] = val
        values[mesh.reverse_index[k]] = -val
    return DiscreteOneForm(values)


def test_face_sign_patterns(grid3):
    mesh, _ = grid3
    form = face_form(mesh, 0, [0.2, -0.1, -0.1])
    assert index_theorem_check(mesh, form).face_indices[0] == 0  # sc = 2
    # a boundary with one sign has no alternations: index 1 (a source)
    form = face_form(mesh, 0, [0.2, 0.1, 0.3])
    assert index_theorem_check(mesh, form).face_indices[0] == 1  # sc = 0


def test_degenerate_face_rejected(grid3):
    """A face whose boundary values all vanish has no index."""
    mesh, _ = grid3
    form = face_form(mesh, 0, [0.0, 0.0, 0.0])
    report = index_theorem_check(mesh, form)
    assert report.face_indices[0] is None
    assert report.degenerate_faces == [0]
    assert not report.nonvanishing


# ---------------------------------------------------------------------------
# Index theorem

def test_index_report_generic_direction(grid3):
    mesh, placement = grid3
    form, angle = generic_direction_form(mesh, placement)
    assert angle == 0.1
    report = index_theorem_check(mesh, form)
    assert report.nonvanishing
    assert report.degenerate_vertices == []
    assert report.degenerate_edges == []
    assert report.degenerate_faces == []
    assert all(ix == 0 for ix in report.vertex_indices)
    assert all(ix == 0 for ix in report.face_indices)
    assert report.total == 0


def test_index_theorem_on_fixtures(grid4, grid5, k7, bumpy3, bumpy4):
    for mesh, placement in (grid4, grid5, k7, bumpy3, bumpy4):
        for start in (0.1, 0.7, 1.3, 1.9, 2.5):
            form, _ = generic_direction_form(mesh, placement, start_angle=start)
            report = index_theorem_check(mesh, form)
            assert report.nonvanishing
            assert all(ix == 0 for ix in report.vertex_indices)
            assert all(ix == 0 for ix in report.face_indices)
            assert report.total == 0


def test_index_theorem_arbitrary_forms(grid4, k7, rng):
    """The zero total needs no closedness, only nonvanishing."""
    for mesh, _ in (grid4, k7):
        for _ in range(20):
            values = np.zeros(len(mesh.directed_edges))
            for k, (i, j) in enumerate(mesh.directed_edges):
                if i < j:
                    v = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
                    values[k] = v
                    values[mesh.reverse_index[k]] = -v
            report = index_theorem_check(mesh, DiscreteOneForm(values))
            assert report.nonvanishing
            assert report.total == 0


def test_index_theorem_on_folded_placement(grid3):
    """Folds redistribute index mass but the total stays zero."""
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    form, _ = generic_direction_form(mesh, Placement(coords))
    report = index_theorem_check(mesh, form)
    assert report.nonvanishing
    assert report.total == 0


def test_axis_direction_degenerates_on_grid(grid4):
    mesh, placement = grid4
    form = direction_form(mesh, placement, np.array([1.0, 0.0]))
    report = index_theorem_check(mesh, form)
    assert not report.nonvanishing
    # every vertical edge of the 4x4 grid vanishes
    assert len(report.degenerate_edges) == 16
    assert report.degenerate_vertices == []


def test_generic_direction_retries_deterministically(grid4):
    mesh, placement = grid4
    form, angle = generic_direction_form(mesh, placement, start_angle=0.0)
    # the axis-aligned start vanishes on vertical edges; the ladder
    # advances by the fixed step and the next rung already works
    assert angle == 0.6
    assert np.abs(form.values).min() > 1e-13
    again = generic_direction_form(mesh, placement, start_angle=0.0)
    assert again[1] == angle
    assert np.array_equal(again[0].values, form.values)


def test_generic_direction_form_raises_when_an_edge_has_no_length(grid3):
    """A zero lifted edge vanishes on every direction of the ladder."""
    mesh, _ = grid3
    with pytest.raises(DegenerateVertexError, match=r"edge \(0, 1\) has a zero lifted edge vector"):
        generic_direction_form(mesh, Placement(np.zeros((9, 2))))


@pytest.mark.parametrize("fixture", ["grid4", "k7"])
def test_indices_match_cell_by_cell_oracle(fixture, request):
    """Segmented sign-change counts agree with a per-cell count, zeros included."""
    mesh, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(29)
    rev = mesh.reverse_index
    for zero_share in (0.0, 0.3, 0.9, 1.0):
        values = rng.normal(size=len(rev))
        values[rng.uniform(size=len(rev)) < zero_share] = 0.0
        values = np.where(np.arange(len(rev)) < rev, values, -values[rev])
        form = DiscreteOneForm(values)
        report = index_theorem_check(mesh, form)
        vertex, face = helpers.oracle_indices(mesh, values, 1e-13)
        assert report.vertex_indices == vertex
        assert report.face_indices == face
        assert report.degenerate_vertices == [v for v, x in enumerate(vertex) if x is None]
        assert report.degenerate_faces == [f for f, x in enumerate(face) if x is None]
        defined = [x for x in vertex + face if x is not None]
        assert report.total == sum(defined)
