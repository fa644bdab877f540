import json

import numpy as np
import pytest
import scipy.sparse

import helpers
import torustutte.tutte
from torustutte import (
    ALREADY_ADMISSIBLE,
    WeightAssignment,
    balance_energy,
    build_mesh,
    gen_grid,
    gen_k7,
    loop_gap,
    mean_value_weights,
    morph,
    perturb,
    residual_structure,
    retract,
    solve_balance,
    tutte_map,
    uniform_weights,
    verify_embedding,
)
from torustutte.cli import main
from torustutte.errors import (
    NonPositiveWeightError,
    NotAdmissibleError,
    SingularSystemError,
)
from torustutte.serialize import dump_json, mesh_to_json, weights_from_json, weights_to_json
from torustutte.tutte import _assemble, _pattern


def single_asymmetry(mesh, edge=(0, 1), value=5.0):
    """Uniform weights with one directed weight bumped: not admissible."""
    values = np.ones(len(mesh.directed_edges))
    values[helpers.edge_id(mesh, *edge)] = value
    return WeightAssignment(values)


def weights_from_dict(mesh, mapping):
    """Weights read from the rows of an ``{(i, j): w}`` mapping, in its order."""
    return weights_from_json(mesh, {"weights": [[i, j, w] for (i, j), w in mapping.items()]})


# ---------------------------------------------------------------------------
# Weight containers

def test_uniform_weights(grid3):
    mesh, _ = grid3
    w = uniform_weights(mesh)
    assert w.values.shape == (54,)
    assert np.all(w.values == 1.0)
    with pytest.raises(TypeError):  # every weight is 1.0; there is no value to pass
        uniform_weights(mesh, 0.0)


def test_weights_dict_round_trip(grid3, rng):
    mesh, _ = grid3
    w = WeightAssignment(helpers.random_directed_weights(mesh, rng, 0.5, 2.0))
    rebuilt = weights_from_dict(mesh, helpers.edge_mapping(mesh, w.values))
    assert np.array_equal(rebuilt.values, w.values)


def test_weights_from_dict_rejects_missing_and_extra(grid3):
    mesh, _ = grid3
    full = helpers.edge_mapping(mesh, uniform_weights(mesh).values)
    partial = dict(full)
    partial.pop((0, 1))
    with pytest.raises(ValueError, match="missing"):
        weights_from_dict(mesh, partial)
    extra = dict(full)
    extra[(0, 5)] = 1.0
    with pytest.raises(ValueError, match="non-edge"):
        weights_from_dict(mesh, extra)


def test_weights_from_dict_names_first_missing_and_extra(grid3):
    """Missing edges are named in directed_edges order, extras in mapping order."""
    mesh, _ = grid3
    full = helpers.edge_mapping(mesh, uniform_weights(mesh).values)
    partial = {e: w for e, w in full.items() if e not in ((4, 0), (1, 0), (8, 7))}
    with pytest.raises(ValueError, match=r"missing weight for directed edge \(1, 0\)$"):
        weights_from_dict(mesh, partial)
    extra = {(8, 3): 1.0, (0, 5): 1.0, **full, (2**70, 0): 1.0, (-1, 3): 1.0}
    with pytest.raises(ValueError, match=r"weight given for non-edge \(8, 3\)$"):
        weights_from_dict(mesh, extra)
    extra.pop((8, 3))
    with pytest.raises(ValueError, match=r"weight given for non-edge \(0, 5\)$"):
        weights_from_dict(mesh, extra)
    extra.pop((0, 5))
    huge = r"weight given for non-edge \(1180591620717411303424, 0\)$"
    with pytest.raises(ValueError, match=huge):
        weights_from_dict(mesh, extra)


def test_nonpositive_weights_rejected(grid3):
    mesh, _ = grid3
    values = np.ones(54)
    values[3] = 0.0
    with pytest.raises(NonPositiveWeightError):
        solve_balance(mesh, WeightAssignment(values))
    values[3] = np.nan
    with pytest.raises(NonPositiveWeightError):
        solve_balance(mesh, WeightAssignment(values))
    with pytest.raises(ValueError):
        solve_balance(mesh, WeightAssignment(np.ones(10)))


# ---------------------------------------------------------------------------
# Assembly

def assembled(mesh, values):
    """A[1:, 1:] as a dense array and the full b, from the production CSC arrays of its transpose."""
    arrays, rhs = _assemble(mesh, np.asarray(values, dtype=float), _pattern(mesh))
    return scipy.sparse.csc_matrix(arrays).toarray().T, rhs


def test_assembly_uniform_grid(grid3):
    mesh, placement = grid3
    matrix, rhs = assembled(mesh, np.ones(54))
    assert matrix.shape == (8, 8)
    assert np.allclose(np.diag(matrix), -6.0, atol=0)
    for i in range(1, 9):
        for j in range(1, 9):
            if i != j:
                expected = 1.0 if helpers.is_edge(mesh, i, j) else 0.0
                assert matrix[i - 1, j - 1] == expected
    # rows of b collect -sum w_ij b_ij; nonzero exactly at seam vertices
    oracle_matrix, oracle_rhs = helpers.oracle_assemble(
        mesh, np.ones(54)
    )
    assert np.allclose(rhs, oracle_rhs, atol=0)
    assert np.array_equal(rhs[0], [2.0, 2.0])  # corner vertex shifts
    assert np.allclose(rhs.sum(axis=0), 0.0, atol=0)  # antisymmetry
    # the grid placement, vertex 0 at the origin, satisfies the system exactly
    assert placement.anchored
    assert np.allclose(matrix @ placement.coords[1:], rhs[1:], atol=1e-12)


def test_assembly_row_sums_zero(grid4, rng):
    """A has zero row sums, so a row of A[1:, 1:] sums to minus the weight of its edge to 0."""
    mesh, _ = grid4
    values = helpers.random_directed_weights(mesh, rng, 0.1, 10.0)
    matrix, _ = assembled(mesh, values)
    to_zero = np.zeros(mesh.vertex_count)
    for k, (i, j) in enumerate(mesh.directed_edges.tolist()):
        if j == 0:
            to_zero[i] = values[k]
    assert np.allclose(matrix.sum(axis=1), -to_zero[1:], atol=1e-12)


def test_assembly_matches_oracle(grid4, rng):
    mesh, _ = grid4
    values = helpers.random_directed_weights(mesh, rng, 0.1, 10.0)
    matrix, rhs = assembled(mesh, values)
    oracle_matrix, oracle_rhs = helpers.oracle_assemble(mesh, values)
    assert np.allclose(matrix, oracle_matrix[1:, 1:], atol=1e-13)
    assert np.allclose(rhs, oracle_rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# Solving

def test_uniform_solve_reproduces_grid(grid3):
    mesh, placement = grid3
    coords, report = solve_balance(mesh, uniform_weights(mesh))
    assert np.allclose(coords.coords, placement.coords, atol=1e-12)
    assert report.energy <= 1e-24
    assert report.zero_residual
    assert report.direction is None and report.projections is None


def test_symmetric_weights_admissible(grid4, rng):
    mesh, _ = grid4
    for _ in range(10):
        values = helpers.random_symmetric_weights(mesh, rng, 0.1, 10.0)
        weights = WeightAssignment(values)
        assert balance_energy(mesh, weights) <= 1e-20
        assert residual_structure(mesh, weights).zero_residual
        # independent certificate: A is symmetric, its left null vector
        # is constant, and b sums to zero by shift antisymmetry
        matrix, rhs = helpers.oracle_assemble(mesh, values)
        pi = helpers.oracle_left_null(matrix)
        assert np.allclose(pi, pi[0], atol=1e-10)
        assert np.allclose(pi @ rhs, 0.0, atol=1e-12)


def test_solution_matches_normal_equations_oracle(grid3, k7, rng):
    for mesh, _ in (grid3, k7):
        for _ in range(5):
            values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
            placement, report = solve_balance(mesh, WeightAssignment(values))
            coords, residual, energy = helpers.oracle_solve(mesh, values)
            assert np.allclose(placement.coords, coords, atol=1e-8)
            assert report.energy == pytest.approx(energy, rel=1e-8, abs=1e-20)
            assert np.allclose(helpers.residual_rows(report), residual, atol=1e-8)


def test_residual_satisfies_normal_condition(grid3, rng):
    mesh, _ = grid3
    values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
    placement, report = solve_balance(mesh, WeightAssignment(values))
    matrix, _ = helpers.oracle_assemble(mesh, values)
    reduced = matrix[:, 1:]
    gradient = reduced.T @ helpers.residual_rows(report)
    scale = np.linalg.norm(matrix) * max(np.linalg.norm(helpers.residual_rows(report)), 1e-30)
    assert np.abs(gradient).max() <= 1e-9 * scale


def test_left_null_vector_detects_admissibility(grid3, rng):
    mesh, _ = grid3
    sym = helpers.random_symmetric_weights(mesh, rng, 0.5, 2.0)
    asym = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
    for values, admissible in ((sym, True), (asym, False)):
        matrix, rhs = helpers.oracle_assemble(mesh, values)
        pi = helpers.oracle_left_null(matrix)
        assert (pi > 0).all()  # positive left null vector of A
        mismatch = np.abs(pi @ rhs).max()
        weights = WeightAssignment(values)
        assert residual_structure(mesh, weights).zero_residual == admissible
        if admissible:
            assert mismatch <= 1e-12
        else:
            assert mismatch > 1e-6
            # closed form: rank one along pi, every row pointing along -pi^T b
            drift = pi @ rhs
            report = residual_structure(mesh, weights)
            assert np.allclose(report.direction, -drift / np.linalg.norm(drift), atol=1e-12)
            assert np.allclose(
                helpers.residual_rows(report), -np.outer(pi, drift) / (pi @ pi), atol=1e-12
            )


# ---------------------------------------------------------------------------
# Residual structure

def test_single_asymmetry_residual_structure(grid3):
    mesh, _ = grid3
    weights = single_asymmetry(mesh)
    report = residual_structure(mesh, weights)
    assert report.energy > 1e-6
    assert not report.zero_residual
    assert helpers.max_weight_ratio(mesh, weights.values) == 5.0
    # rank one: second singular value vanishes relative to the first
    assert helpers.oracle_singular_ratio(helpers.residual_rows(report)) <= 1e-9
    # all residual rows share a half-plane
    gram = helpers.residual_rows(report) @ helpers.residual_rows(report).T
    assert gram.min() > 0
    # row norms decompose along the common direction
    assert report.direction is not None
    assert np.linalg.norm(report.direction) == pytest.approx(1.0, abs=1e-12)
    norms = np.linalg.norm(helpers.residual_rows(report), axis=1)
    for i in range(mesh.vertex_count):
        total = 0.0
        for j in helpers.ring(mesh, i):
            k = helpers.edge_id(mesh, i, j)
            total += weights.values[k] * report.projections[k]
        assert norms[i] == pytest.approx(total, rel=1e-9, abs=1e-12)
    # row norm spread is capped by the weight asymmetry
    ratio = norms.max() / norms.min()
    assert ratio <= helpers.max_weight_ratio(mesh, weights.values) ** (mesh.vertex_count - 1)


def test_residual_structure_random(grid3, rng):
    mesh, _ = grid3
    for _ in range(10):
        values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
        report = residual_structure(mesh, WeightAssignment(values))
        assert report.energy > 1e-10
        assert helpers.oracle_singular_ratio(helpers.residual_rows(report)) <= 1e-9
        assert (helpers.residual_rows(report) @ helpers.residual_rows(report).T).min() > 0
        norms = np.linalg.norm(helpers.residual_rows(report), axis=1)
        bound = helpers.max_weight_ratio(mesh, values) ** (mesh.vertex_count - 1)
        assert norms.max() / norms.min() <= bound


RESIDUAL_MESHES = {
    "grid3": lambda: gen_grid(3)[0],
    "k7": lambda: gen_k7()[0],
    "diagonal12": lambda: build_mesh(
        *helpers.random_diagonal_grid(12, np.random.default_rng(12))
    ),
    "grid32": lambda: gen_grid(32)[0],
}


@pytest.mark.parametrize("name", list(RESIDUAL_MESHES))
def test_residual_rank_one_beyond_small_grids(name, rng):
    """The closed-form report against the oracles, on meshes up to 1 024 vertices."""
    mesh = RESIDUAL_MESHES[name]()
    values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
    report = residual_structure(mesh, WeightAssignment(values))
    assert not report.zero_residual
    _, residual, _ = helpers.oracle_solve(mesh, values)
    assert np.allclose(helpers.residual_rows(report), residual, atol=1e-8)
    assert helpers.oracle_singular_ratio(helpers.residual_rows(report)) <= 1e-9
    assert (helpers.residual_rows(report) @ helpers.residual_rows(report).T).min() > 0
    assert report.projections.min() <= -loop_gap(mesh)


# ---------------------------------------------------------------------------
# Map to placements

def test_subnormal_weights_make_a_singular_system(grid6):
    """Weights of 5e-324 pass validation, but the reduced balance matrix is exactly singular."""
    mesh, _ = grid6
    with pytest.raises(SingularSystemError, match="singular"):
        balance_energy(mesh, WeightAssignment(np.full(len(mesh.directed_edges), 5e-324)))


def test_tutte_map_uniform(grid3):
    mesh, placement = grid3
    result = tutte_map(mesh, uniform_weights(mesh))
    assert result.anchored
    assert np.allclose(result.coords, placement.coords, atol=1e-12)


def test_tutte_map_symmetric_random_embeds(grid4, rng):
    mesh, _ = grid4
    for _ in range(5):
        values = helpers.random_symmetric_weights(mesh, rng, 0.1, 10.0)
        placement = tutte_map(mesh, WeightAssignment(values))
        report = verify_embedding(mesh, placement)
        assert report.is_embedding
        assert report.total_area == pytest.approx(1.0, abs=1e-9)


def test_tutte_map_rejects_non_admissible(grid3):
    mesh, _ = grid3
    with pytest.raises(NotAdmissibleError):
        tutte_map(mesh, single_asymmetry(mesh))


def morph_grid3(mesh, weights, **options):
    """A two-frame morph of the 3x3 grid onto itself; ignores ``weights``."""
    placement = gen_grid(3)[1]
    return morph(mesh, placement, placement, 2, **options)


TOL_ENTRY_POINTS = {
    "solve_balance": solve_balance,
    "residual_structure": residual_structure,
    "tutte_map": tutte_map,
    "retract": retract,
    "morph": morph_grid3,
}


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", list(TOL_ENTRY_POINTS))
def test_bad_tol_rejected_everywhere(grid3, entry, tol):
    """No entry point takes a tolerance: ``ADMISSIBLE_TOL`` alone decides."""
    mesh, _ = grid3
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        TOL_ENTRY_POINTS[entry](mesh, single_asymmetry(mesh), tol=tol)


def test_one_constant_decides_admissibility(grid3, tmp_path, capsys, monkeypatch):
    """Raising ADMISSIBLE_TOL above an energy makes every verdict admissible at once."""
    mesh, _ = grid3
    weights = single_asymmetry(mesh)
    energy = balance_energy(mesh, weights)
    assert 0.07 < energy < 0.08
    monkeypatch.setattr(torustutte.tutte, "ADMISSIBLE_TOL", 0.1)
    assert tutte_map(mesh, weights).anchored
    report = residual_structure(mesh, weights)
    assert report.zero_residual
    assert report.projections is None  # the flow has no field to follow
    assert retract(mesh, weights).status == ALREADY_ADMISSIBLE
    paths = tmp_path / "mesh.json", tmp_path / "weights.json"
    dump_json(mesh_to_json(mesh), paths[0])
    dump_json(weights_to_json(mesh, weights), paths[1])
    assert main(["energy", "--mesh", str(paths[0]), "--weights", str(paths[1])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"energy": energy, "admissible": True, "tol": 0.1}


def stiff_weights(mesh, kind, rng):
    if kind == "log-uniform":
        return 10 ** rng.uniform(-3, 3, len(mesh.directed_edges))
    src, dst = mesh.directed_edges.T
    return helpers.random_symmetric_weights(mesh, rng, 0.5, 2.0) * np.where(src < dst, 50.0, 1.0)


@pytest.mark.parametrize("kind", ["log-uniform", "forward 50x reverse"])
@pytest.mark.parametrize("name", ["grid12", "diagonal12"])
def test_solve_matches_colamd_lu_on_stiff_weights(name, kind):
    """Diagonal pivots in a symmetric ordering agree with partial pivoting."""
    mesh = gen_grid(12)[0] if name == "grid12" else RESIDUAL_MESHES[name]()
    values = stiff_weights(mesh, kind, np.random.default_rng(2))
    placement, report = solve_balance(mesh, WeightAssignment(values))
    coords, pi, drift, energy = helpers.oracle_colamd_solve(mesh, values)
    for got, want in ((placement.coords, coords), (report.pi, pi), (report.drift, drift)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert report.energy == pytest.approx(energy, rel=1e-10, abs=0)


PIVOT_MESHES = {
    "grid12": lambda: gen_grid(12)[0],
    "k7": lambda: gen_k7()[0],
    "diagonal12": RESIDUAL_MESHES["diagonal12"],
    "grid64": lambda: gen_grid(64)[0],
}


@pytest.mark.parametrize("span", [0.3, 3, 6, 8])
@pytest.mark.parametrize("name", list(PIVOT_MESHES))
def test_factor_keeps_diagonal_pivots(name, span):
    """-A[1:, 1:] is an M-matrix, so SuperLU pivots on the diagonal: its row
    permutation is its symmetric column ordering, on weights 10^U(-span, span)."""
    mesh = PIVOT_MESHES[name]()
    values = 10.0 ** np.random.default_rng(5).uniform(-span, span, len(mesh.directed_edges))
    lu = torustutte.tutte._factor(mesh, values, _pattern(mesh)).lu
    assert np.array_equal(lu.perm_r, lu.perm_c)


# ---------------------------------------------------------------------------
# Accuracy across sizes

@pytest.mark.parametrize("m", [16, 17, 64])
def test_solve_has_no_size_cliff(m):
    """Same accuracy on both sides of n = 256, where a dense/sparse split once
    sat, and at 4 096 vertices."""
    mesh, placement = gen_grid(m)
    coords, report = solve_balance(mesh, uniform_weights(mesh))
    assert report.energy <= 1e-24
    assert np.allclose(coords.coords, placement.coords, atol=1e-12)
    bumpy = perturb(mesh, placement, 0.3 / m, seed=3)
    coords, report = solve_balance(mesh, mean_value_weights(mesh, bumpy))
    assert report.energy <= 1e-24
    assert np.abs(coords.coords - bumpy.coords).max() <= 1e-13


def test_sparse_solve_mvc_round_trip():
    mesh, placement = gen_grid(17)
    bumpy = perturb(mesh, placement, 0.3 / 17, seed=3)
    weights = mean_value_weights(mesh, bumpy)
    assert residual_structure(mesh, weights).zero_residual
    back = tutte_map(mesh, weights)
    assert np.abs(back.coords - bumpy.coords).max() <= 1e-8
