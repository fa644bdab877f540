"""Morphs between embedded placements through weight space.

Both endpoints are converted to mean value weights, interpolated
linearly, and each interpolant is retracted to an admissible
assignment whose balanced placement is the frame. Every frame is then
an embedding by construction, and the endpoint frames reproduce the
inputs because mean value weights are already admissible. A frame is
the placement the retraction solved last, certified once here; it is
exactly ``tutte_map`` of the retraction's final weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotEmbeddedError, RetractFailedError
from .flow import BUDGET_EXCEEDED, _retract
from .geometry import Placement, verify_embedding
from .mvc import mean_value_weights
from .tutte import WeightAssignment, _certify


@dataclass(frozen=True)
class MorphReport:
    frame_reports: list
    max_displacement: float
    passed: bool


def morph(mesh, start, end, steps, max_steps=200_000):
    """Embedded frames from ``start`` to ``end``, inclusive.

    Both placements must be anchored embeddings of the same mesh;
    ``steps`` counts the frames returned, at least 2. No state carries
    over between frames, each retraction starts fresh from its
    interpolated weights.
    """
    if steps < 2:
        raise ValueError("a morph needs at least 2 frames")
    for name, p in (("start", start), ("end", end)):
        if not p.anchored:
            raise ValueError(f"{name} placement must have vertex 0 at the origin")
        if not verify_embedding(mesh, p).is_embedding:
            raise NotEmbeddedError(f"{name} placement is not an embedding")
    w0 = mean_value_weights(mesh, start).values
    w1 = mean_value_weights(mesh, end).values
    frames = []
    for s in range(steps):
        t = s / (steps - 1)
        trace, coords = _retract(mesh, WeightAssignment((1.0 - t) * w0 + t * w1), max_steps)
        if trace.status == BUDGET_EXCEEDED:
            raise RetractFailedError(f"retraction at t={t:.4f} did not converge")
        frame = Placement(coords)
        _certify(mesh, frame)
        frames.append(frame)
    return frames


def max_displacement(frames):
    """Largest coordinate jump between consecutive frames."""
    return max(
        (float(np.abs(a.coords - b.coords).max()) for a, b in zip(frames, frames[1:])),
        default=0.0,
    )


def verify_morph(mesh, frames):
    """Certify every frame and measure the largest inter-frame jump."""
    reports = [verify_embedding(mesh, f) for f in frames]
    return MorphReport(
        frame_reports=reports,
        max_displacement=max_displacement(frames),
        passed=all(r.is_embedding for r in reports),
    )
