"""Geodesic realizations of torus triangulations and their certificates.

A placement assigns each vertex a lifted position in the plane; the
torus position is the same point mod Z^2. Edges are straight segments
between lifts, so the lifted vector of directed edge (i, j) is
x_j + b_ij - x_i. A placement is an embedding when every face has
positive signed area and the signed areas sum to 1, the area of the
unit torus covered exactly once.
"""

from dataclasses import dataclass

import numpy as np

AREA_TOL = 1e-12
TOTAL_AREA_TOL = 1e-9


class Placement:
    """Lifted vertex coordinates, one row per vertex.

    ``anchored`` is true when vertex 0 sits exactly at the origin,
    the normalization the balance solver produces.
    """

    def __init__(self, coords):
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        self.coords = coords
        self.anchored = bool(coords[0, 0] == 0.0 and coords[0, 1] == 0.0)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class EmbeddingReport:
    """Certificate data from :func:`verify_embedding`.

    ``degree`` is the rounded total signed area, the degree of the
    placement as a map to the torus; an embedding has degree 1.
    """

    face_areas: np.ndarray
    total_area: float
    min_area: float
    is_embedding: bool
    degree: int


def _check_sizes(mesh, placement):
    if len(placement.coords) != mesh.vertex_count:
        raise ValueError(
            f"placement has {len(placement.coords)} rows, mesh has {mesh.vertex_count} vertices"
        )


def _lifted(mesh, placement, edges):
    """Lifted vectors of ``edges``, any index into mesh.directed_edges, shape (..., 2)."""
    _check_sizes(mesh, placement)
    ends = mesh.directed_edges[edges]
    # np.take gathers the same rows as fancy indexing, several times faster
    head, tail = (np.take(placement.coords, ends[..., k], axis=0) for k in (1, 0))
    return head - tail + mesh.shifts[edges]


def edge_vectors(mesh, placement):
    """Lifted vectors of every directed edge, aligned with mesh.directed_edges."""
    return _lifted(mesh, placement, slice(None))


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _signed_areas(fv):
    """Signed areas from face edge vectors ``fv`` of shape (..., 3, 2)."""
    return 0.5 * _cross(fv[..., 0, :], -fv[..., 2, :])


def _corner_angles(fv):
    """Unsigned inner angle at every corner, (..., 3) in face vertex order."""
    w = -np.roll(fv, 1, axis=-2)
    return np.arctan2(np.abs(_cross(fv, w)), np.einsum("...ci,...ci->...c", fv, w))


def face_signed_areas(mesh, placement):
    """Signed area of every face; positive means counterclockwise."""
    return _signed_areas(_lifted(mesh, placement, mesh.face_edges))


def _certificate(fv):
    """The :class:`EmbeddingReport` of face edge vectors ``fv``, shape (F, 3, 2)."""
    areas = _signed_areas(fv)
    total, least = float(areas.sum()), float(areas.min())
    embeds = least > AREA_TOL and abs(total - 1.0) <= TOTAL_AREA_TOL
    return EmbeddingReport(areas, total, least, embeds, int(round(total)))


def verify_embedding(mesh, placement):
    """Certify whether a placement embeds the mesh in the torus.

    The certificate is purely local: all face areas exceed ``AREA_TOL``
    and the total equals 1 within ``TOTAL_AREA_TOL``, which pins the
    degree to one.
    """
    return _certificate(_lifted(mesh, placement, mesh.face_edges))


def vertex_angle_defects(mesh, placement):
    """2*pi minus the unsigned angle sum at each vertex; zero for embeddings,
    since the flat torus has no curvature to absorb."""
    angles = _corner_angles(_lifted(mesh, placement, mesh.face_edges))
    return 2.0 * np.pi - np.bincount(mesh.faces.ravel(), angles.ravel(), mesh.vertex_count)
