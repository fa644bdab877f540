import math

import numpy as np
import pytest

import helpers
from torustutte import (
    Placement,
    WeightAssignment,
    build_mesh,
    check_balanced,
    gen_grid,
    is_admissible,
    mean_value_weights,
    tutte_map,
)
from torustutte.errors import NotEmbeddedError

# On the exact grid each corner pair at an axis edge is (pi/4, pi/2)
# and at a diagonal edge (pi/4, pi/4); lengths 1/m and sqrt(2)/m give
# m*(tan(pi/8) + tan(pi/4)) and (2/sqrt(2))*m*tan(pi/8) for m = 3.
AXIS_WEIGHT_3 = 3.0 * (math.tan(math.pi / 8) + 1.0)
DIAG_WEIGHT_3 = 3.0 * math.sqrt(2.0) * math.tan(math.pi / 8)


def test_grid_weight_values(grid3):
    mesh, placement = grid3
    weights = mean_value_weights(mesh, placement)
    assert AXIS_WEIGHT_3 == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-12)
    assert DIAG_WEIGHT_3 == pytest.approx(6.0 - 3.0 * math.sqrt(2.0), abs=1e-12)
    for k in range(len(mesh.directed_edges)):
        diagonal = np.abs(
            placement.coords[mesh.directed_edges[k][1]]
            + mesh.shifts[k]
            - placement.coords[mesh.directed_edges[k][0]]
        ).min() > 1e-12
        expected = DIAG_WEIGHT_3 if diagonal else AXIS_WEIGHT_3
        assert weights.values[k] == pytest.approx(expected, abs=1e-12)


def test_weights_match_arccos_oracle(grid3, bumpy3, bumpy4, k7):
    for mesh, placement in (grid3, bumpy3, bumpy4, k7):
        weights = mean_value_weights(mesh, placement)
        oracle = helpers.oracle_mean_value(mesh, placement)
        assert np.allclose(weights.values, oracle, rtol=1e-10, atol=1e-12)


def test_weights_positive(bumpy3, bumpy4, k7):
    for mesh, placement in (bumpy3, bumpy4, k7):
        weights = mean_value_weights(mesh, placement)
        assert weights.values.min() > 0


def test_weights_balance_their_placement(grid3, bumpy3, bumpy4, k7):
    for mesh, placement in (grid3, bumpy3, bumpy4, k7):
        weights = mean_value_weights(mesh, placement)
        assert check_balanced(mesh, placement, weights) <= 1e-12


def test_weights_admissible(bumpy4, k7):
    for mesh, placement in (bumpy4, k7):
        weights = mean_value_weights(mesh, placement)
        assert is_admissible(mesh, weights)


def test_section_property(grid3, bumpy3, bumpy4, k7):
    """tutte_map inverts mean_value_weights on anchored embeddings."""
    for mesh, placement in (grid3, bumpy3, bumpy4, k7):
        weights = mean_value_weights(mesh, placement)
        back = tutte_map(mesh, weights)
        assert np.abs(back.coords - placement.coords).max() <= 1e-8


def test_weight_scaling_invariance(bumpy4):
    """Balanced placements only see weight ratios, not the scale."""
    mesh, placement = bumpy4
    weights = mean_value_weights(mesh, placement)
    scaled = WeightAssignment(2.7 * weights.values)
    a = tutte_map(mesh, weights)
    b = tutte_map(mesh, scaled)
    assert np.abs(a.coords - b.coords).max() <= 1e-10


def test_non_embedded_placement_rejected(grid3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    with pytest.raises(NotEmbeddedError):
        mean_value_weights(mesh, Placement(coords))


def test_check_balanced_detects_imbalance(grid3):
    mesh, placement = grid3
    weights = mean_value_weights(mesh, placement)
    coords = placement.coords.copy()
    coords[4] += [0.02, -0.01]
    residual = check_balanced(mesh, Placement(coords), weights)
    assert residual > 1e-3


@pytest.mark.parametrize("m, diagonal", [(3, False), (5, False), (8, True)])
def test_batched_weights_match_per_edge_formula(m, diagonal):
    """The batched lookups give the per-edge loop's weights."""
    rng = np.random.default_rng(m)
    if diagonal:
        mesh = build_mesh(*helpers.random_diagonal_grid(m, rng))
    else:
        mesh, _ = gen_grid(m)
    coords = helpers.grid_coords(m) + rng.uniform(-0.1, 0.1, (m * m, 2)) / m
    coords[0] = 0.0
    placement = Placement(coords)
    got = mean_value_weights(mesh, placement).values
    expected = helpers.oracle_mean_value_per_edge(mesh, placement)
    assert np.abs(got - expected).max() <= 1e-15


@pytest.mark.parametrize("m, diagonal", [(3, False), (4, True), (7, False), (12, True)])
def test_corner_neighbours_match_edge_id_lookup(m, diagonal, k7):
    """Neighbour edges read off the corners give the edge_ids lookup's weights bit for bit."""
    rng = np.random.default_rng(m)
    if diagonal:
        mesh = build_mesh(*helpers.random_diagonal_grid(m, rng))
    else:
        mesh, _ = gen_grid(m)
    coords = helpers.grid_coords(m) + rng.uniform(-0.1, 0.1, (m * m, 2)) / m
    for case_mesh, placement in ((mesh, Placement(coords)), k7):
        got = mean_value_weights(case_mesh, placement).values
        assert np.array_equal(got, helpers.oracle_mean_value_edge_ids(case_mesh, placement))
