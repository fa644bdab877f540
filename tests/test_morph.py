import importlib

import numpy as np
import pytest

import helpers
import torustutte.flow
import torustutte.geometry
import torustutte.mvc
import torustutte.tutte
from torustutte import (
    CONVERGED,
    STALLED,
    FlowTrace,
    Placement,
    WeightAssignment,
    gen_grid,
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


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", None])
def test_morph_rejects_non_integer_steps(bumpy4, monkeypatch, steps):
    mesh, placement = bumpy4
    solves = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    with pytest.raises(ValueError, match="a morph needs an integer of at least 2 frames"):
        morph(mesh, placement, placement, steps)
    assert solves[0] == 0


def test_morph_raises_when_a_frame_stalls(grid4, monkeypatch):
    """A stalled retraction is a failed frame, like a spent step budget. The
    endpoints' mean value weights need no step; the midpoint stalls."""
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=1)
    end = perturb(mesh, placement, 0.075, seed=2)
    # the package's ``morph`` attribute is the function, so fetch the module
    module = importlib.import_module("torustutte.morph")
    inner = module._retract

    def stalling(*args):
        trace, coords = inner(*args)
        if trace.status == CONVERGED:
            trace = FlowTrace(trace.samples, STALLED)
        return trace, coords

    monkeypatch.setattr(module, "_retract", stalling)
    with pytest.raises(RetractFailedError, match=r"t=0\.5000 did not converge: stalled"):
        morph(mesh, start, end, 3)


def test_morph_factor_count_pinned(monkeypatch):
    """Every step of each frame starts at the linear model's zero. With that
    start on a frame's first step only and a ratio test after it, this morph
    took 125 factorizations; with a first trial of 0.01, 150."""
    mesh, placement = gen_grid(16)
    start = perturb(mesh, placement, 0.3 / 16, 1)
    end = perturb(mesh, placement, 0.3 / 16, 2)
    factors = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    frames = morph(mesh, start, end, 9)
    assert verify_morph(mesh, frames).passed
    assert factors[0] == 98 < 125


@pytest.mark.parametrize("steps", [2, 3, 5])
def test_morph_certifies_each_placement_once(grid4, monkeypatch, steps):
    """n frames take n + 2 certificates: one per frame and one per endpoint.

    Counts the certificate helper behind both verify_embedding and
    mean_value_weights.
    """
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=1)
    end = perturb(mesh, placement, 0.075, seed=2)
    calls = [0]
    inner = torustutte.geometry._certificate

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    for module in (torustutte.geometry, torustutte.mvc):
        monkeypatch.setattr(module, "_certificate", counted)
    assert len(morph(mesh, start, end, steps)) == steps
    assert calls[0] == steps + 2


def test_morph_rejects_unanchored(grid4, bumpy4):
    mesh, placement = grid4
    adrift = Placement(bumpy4[1].coords + [0.25, 0.0])
    with pytest.raises(ValueError, match="origin"):
        morph(mesh, placement, adrift, steps=3)


def test_morph_rejects_folded_endpoint(grid3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    with pytest.raises(NotEmbeddedError, match=r"^end placement is not an embedding \(min area"):
        morph(mesh, placement, Placement(coords), steps=3)
    with pytest.raises(NotEmbeddedError, match=r"^start placement is not an embedding"):
        morph(mesh, Placement(coords), placement, steps=3)


def test_morph_raises_when_a_frame_does_not_converge(grid4):
    """The endpoints' mean value weights need no step; the midpoint does."""
    mesh, placement = grid4
    start = perturb(mesh, placement, 0.075, seed=1)
    end = perturb(mesh, placement, 0.075, seed=2)
    with pytest.raises(RetractFailedError, match=r"retraction at t=0\.5000 did not converge"):
        morph(mesh, start, end, 3, max_steps=0)


def test_morph_rejects_negative_step_budget(bumpy4):
    mesh, start = bumpy4
    with pytest.raises(ValueError, match="max_steps must be a nonnegative integer, got -1"):
        morph(mesh, start, start, 3, max_steps=-1)


def test_verify_morph_flags_folded_frame(grid3, bumpy3):
    mesh, placement = grid3
    coords = placement.coords.copy()
    coords[4] = [-0.1, -0.1]
    report = verify_morph(mesh, [placement, Placement(coords), bumpy3[1]])
    assert not report.passed
    assert [r.is_embedding for r in report.frame_reports] == [True, False, True]
