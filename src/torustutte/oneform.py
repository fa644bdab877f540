"""Discrete one-forms on torus triangulations and their index count.

A discrete one-form assigns a real value to every directed edge,
antisymmetrically. Around a vertex, read the values on outgoing edges
in rotation order and count cyclic sign changes sc among the nonzero
entries; the index of the vertex is (2 - sc) / 2, and likewise for a
face using its three boundary edges. For a form that vanishes nowhere
the indices over all vertices and faces sum to exactly zero. The count
uses integer arithmetic on doubled indices so the total is exact.

Forms obtained by projecting lifted edge vectors of a placement onto a
fixed direction are the ones used to certify balanced placements; for
generic directions they vanish nowhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError
from .geometry import edge_vectors

ZERO_TOL = 1e-13
DIRECTION_STEP = 0.6
DIRECTION_TRIES = 64


@dataclass(frozen=True)
class DiscreteOneForm:
    """Edge values aligned with mesh.directed_edges, antisymmetric."""

    values: np.ndarray


def one_form_from_values(mesh, values):
    values = np.asarray(values, dtype=float)
    if values.shape != (len(mesh.directed_edges),):
        raise ValueError("one value per directed edge required")
    if not np.array_equal(values, -values[mesh.reverse_index]):
        raise ValueError("one-form values must be exactly antisymmetric")
    return DiscreteOneForm(values)


def direction_form(mesh, placement, direction):
    """One-form from projecting lifted edge vectors onto a direction."""
    direction = np.asarray(direction, dtype=float)
    return DiscreteOneForm(edge_vectors(mesh, placement) @ direction)


def _sign_changes(values, offsets):
    """Cyclic sign changes in every segment values[offsets[s]:offsets[s + 1]].

    Zeros (|v| <= ZERO_TOL) are skipped; a segment of zeros gives -1.
    """
    segment = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    keep = np.abs(values) > ZERO_TOL
    segment, positive = segment[keep], values[keep] > 0
    counts = np.bincount(segment, minlength=len(offsets) - 1)
    ends = np.cumsum(counts)[counts > 0]
    # the next kept value in the same segment, wrapping at its end
    following = np.arange(1, len(segment) + 1)
    following[ends - 1] = ends - counts[counts > 0]
    changes = np.bincount(segment, positive != positive[following], len(counts))
    return np.where(counts > 0, changes, -1).astype(int)


@dataclass(frozen=True)
class IndexReport:
    """Index data of one form on one mesh.

    Indices are None for degenerate cells (all incident values zero).
    ``total`` sums the defined indices; when ``nonvanishing`` is true
    every cell is defined and the total is exactly zero for any
    antisymmetric form, which is the certificate the balanced-placement
    machinery relies on.
    """

    vertex_indices: list
    face_indices: list
    degenerate_vertices: list
    degenerate_edges: list
    degenerate_faces: list
    total: float
    nonvanishing: bool


def index_theorem_check(mesh, form):
    """Compute all vertex and face indices and their exact total."""
    values = form.values
    zero = np.abs(values) <= ZERO_TOL
    src, dst = mesh.directed_edges.T
    degenerate_edges = list(map(tuple, mesh.directed_edges[zero & (src < dst)].tolist()))

    by_vertex = _sign_changes(values[mesh.rotation_edges], mesh.rotation_offsets)
    by_face = _sign_changes(
        values[mesh.face_edges.ravel()], np.arange(0, mesh.face_edges.size + 1, 3)
    )
    defined = np.concatenate([by_vertex, by_face])
    defined = defined[defined >= 0]
    return IndexReport(
        vertex_indices=[None if sc < 0 else (2 - sc) / 2 for sc in by_vertex.tolist()],
        face_indices=[None if sc < 0 else (2 - sc) / 2 for sc in by_face.tolist()],
        degenerate_vertices=np.flatnonzero(by_vertex < 0).tolist(),
        degenerate_edges=degenerate_edges,
        degenerate_faces=np.flatnonzero(by_face < 0).tolist(),
        total=int((2 - defined).sum()) / 2,
        nonvanishing=not bool(zero.any()),
    )


def generic_direction_form(mesh, placement, start_angle=0.1):
    """First direction form along the angle ladder that vanishes nowhere.

    Tries ``DIRECTION_TRIES`` angles start_angle, start_angle +
    ``DIRECTION_STEP``, ... and returns (form, angle). Deterministic;
    raises if every try has a zero edge, which only happens for
    degenerate placements.
    """
    for k in range(DIRECTION_TRIES):
        angle = start_angle + k * DIRECTION_STEP
        form = direction_form(
            mesh, placement, np.array([np.cos(angle), np.sin(angle)])
        )
        if np.abs(form.values).min() > ZERO_TOL:
            return form, angle
    raise DegenerateVertexError(
        f"no nonvanishing direction found after {DIRECTION_TRIES} tries"
    )
