import numpy as np
import pytest

import torustutte.tutte
from torustutte import (
    Placement,
    WeightAssignment,
    mean_value_weights,
    morph,
    perturb,
    retract,
    tutte_map,
    verify_morph,
)
from torustutte.errors import NotEmbeddedError, RetractFailedError


def test_morph_between_perturbations(grid4):
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=11)
    end = perturb(mesh, placement, 0.075, seed=22)
    frames = morph(mesh, start, end, steps=9)
    assert len(frames) == 9
    assert np.abs(frames[0].coords - start.coords).max() <= 1e-6
    assert np.abs(frames[-1].coords - end.coords).max() <= 1e-6
    report = verify_morph(mesh, frames)
    assert report.passed
    assert len(report.frame_reports) == 9
    assert all(r.is_embedding for r in report.frame_reports)
    assert report.max_displacement > 0
    # frames advance gradually: no jump larger than the endpoint gap
    endpoint_gap = np.abs(start.coords - end.coords).max()
    assert report.max_displacement <= endpoint_gap


def test_morph_constant_path(bumpy4):
    mesh, placement = bumpy4
    frames = morph(mesh, placement, placement, steps=5)
    for frame in frames:
        assert np.abs(frame.coords - placement.coords).max() <= 1e-8
    report = verify_morph(mesh, frames)
    assert report.passed
    assert report.max_displacement <= 1e-8


def test_morph_deterministic(grid4):
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=11)
    end = perturb(mesh, placement, 0.075, seed=22)
    a = morph(mesh, start, end, steps=5)
    b = morph(mesh, start, end, steps=5)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.coords, fb.coords)


def test_morph_frames_are_tutte_maps_of_the_retractions(grid4, monkeypatch):
    """Each frame is the tutte_map of its retraction's final weights, bit for
    bit, although morph itself never calls tutte_map."""
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=11)
    end = perturb(mesh, placement, 0.075, seed=22)

    def forbidden(*args, **kwargs):
        raise AssertionError("morph called tutte_map")

    with monkeypatch.context() as patch:
        patch.setattr(torustutte.tutte, "tutte_map", forbidden)
        frames = morph(mesh, start, end, steps=5)
    w0 = mean_value_weights(mesh, start).values
    w1 = mean_value_weights(mesh, end).values
    for s, frame in enumerate(frames):
        t = s / 4
        trace = retract(mesh, WeightAssignment((1.0 - t) * w0 + t * w1))
        assert np.array_equal(frame.coords, tutte_map(mesh, trace.final_weights).coords)


def test_morph_rejects_few_steps(bumpy4):
    mesh, placement = bumpy4
    with pytest.raises(ValueError):
        morph(mesh, placement, placement, steps=1)


def test_morph_rejects_unanchored(grid4, bumpy4):
    mesh, placement = grid4
    adrift = Placement(bumpy4[1].coords + [0.25, 0.0])
    with pytest.raises(ValueError, match="origin"):
        morph(mesh, placement, adrift, steps=3)


def test_morph_rejects_folded_endpoint(grid3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    with pytest.raises(NotEmbeddedError):
        morph(mesh, placement, Placement(coords), steps=3)


def test_morph_raises_when_a_frame_does_not_converge(grid4):
    """The endpoints' mean value weights need no step; the midpoint does."""
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=1)
    end = perturb(mesh, placement, 0.075, seed=2)
    with pytest.raises(RetractFailedError, match=r"retraction at t=0\.5000 did not converge"):
        morph(mesh, start, end, 3, max_steps=0)


def test_verify_morph_flags_folded_frame(grid3, bumpy3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    report = verify_morph(mesh, [placement, Placement(coords), bumpy3[1]])
    assert not report.passed
    assert [r.is_embedding for r in report.frame_reports] == [True, False, True]
