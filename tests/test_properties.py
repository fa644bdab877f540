"""Property tests of the balance solver on the small reference meshes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from torustutte import (
    WeightAssignment,
    gen_grid,
    gen_k7,
    residual_structure,
    tutte_map,
    verify_embedding,
)

MESHES = {"grid3": gen_grid(3)[0], "k7": gen_k7()[0], "grid4": gen_grid(4)[0]}


def weight_arrays(mesh):
    return arrays(float, len(mesh.directed_edges), elements=st.floats(0.1, 10.0))


@pytest.mark.parametrize("name", list(MESHES))
@given(data=st.data())
def test_symmetric_weights_embed_with_unit_area(name, data):
    mesh = MESHES[name]
    raw = data.draw(weight_arrays(mesh))
    weights = WeightAssignment(raw + raw[mesh.reverse_index])
    assert residual_structure(mesh, weights).zero_residual
    report = verify_embedding(mesh, tutte_map(mesh, weights))
    assert report.total_area == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", list(MESHES))
@given(data=st.data())
def test_directed_report_matches_left_null_closed_form(name, data):
    mesh = MESHES[name]
    values = data.draw(weight_arrays(mesh))
    report = residual_structure(mesh, WeightAssignment(values))
    matrix, rhs = helpers.oracle_assemble(mesh, values)
    pi = helpers.oracle_left_null(matrix)
    pi = pi / pi[0]
    drift = pi @ rhs
    atol = 1e-12 * (1.0 + np.abs(drift).max())
    assert np.allclose(report.pi, pi, rtol=1e-12, atol=0)
    assert np.allclose(report.drift, drift, rtol=0, atol=atol)
    assert report.energy == pytest.approx(drift @ drift / (pi @ pi), rel=1e-11, abs=1e-20)
    assert np.allclose(report.residuals, -np.outer(pi, drift) / (pi @ pi), rtol=0, atol=atol)
    if not report.zero_residual:
        assert np.allclose(report.direction, -drift / np.linalg.norm(drift), atol=1e-12)
