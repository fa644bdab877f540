"""Generators for standard test meshes and seeded perturbations.

A generated mesh is built on the universal cover: each face lists its
vertex ids together with the integer lattice translate of each corner,
and the shift of an edge is the change of translate along it.
"""

import numpy as np

from .errors import NotEmbeddedError, PerturbFailedError
from .geometry import MAX_COORD, Placement, verify_embedding
from .mesh import build_mesh


# The two counterclockwise triangles of the unit cell at the origin,
# split along its (+1, +1) diagonal, as corner lattice points.
_CELL_HALVES = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


def _cover_mesh(faces, lattice, coords):
    """Mesh and placement from cover faces.

    ``faces`` is (F, 3) vertex ids, ``lattice`` the (F, 3, 2) integer
    translate of each corner and ``coords`` the (n, 2) positions in the
    unit square. Only the rows (i, j, bx, by) of wrapping edges are passed
    on, as in the file format; the rest default to a zero shift.
    """
    shifts = (np.roll(lattice, -1, axis=1) - lattice).reshape(-1, 2)
    rows = np.column_stack([faces.ravel(), np.roll(faces, -1, axis=1).ravel(), shifts])
    return build_mesh(faces, rows[shifts.any(axis=1)]), Placement(coords)


def gen_grid(m):
    """m x m grid triangulation of the unit torus, m >= 3.

    Vertices sit at (x/m, y/m) with id x + m*y; each lattice cell is
    split along its (+1, +1) diagonal. Edges that wrap carry the
    corresponding lattice shift. Returns (mesh, placement); vertex 0
    is at the origin.
    """
    if m < 3:
        raise ValueError("grid size must be at least 3")
    cells = np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2)
    corners = (cells[:, None, None] + _CELL_HALVES).reshape(-1, 3, 2)
    faces = corners[..., 0] % m + m * (corners[..., 1] % m)
    return _cover_mesh(faces, corners // m, cells / m)


def gen_k7():
    """The 7-vertex triangulation of the torus (complete graph K7).

    Built from the triangular lattice modulo the index-7 sublattice
    spanned by (7, 0) and (-2, 1), with vertex p + 2q mod 7 at lattice
    point (p, q). Faces are (i, i+1, i+3) and (i, i+3, i+2) mod 7.
    Returns (mesh, placement) with an embedded geodesic realization.
    """
    # The cells at (i, 0) tile a fundamental domain. Vertex v sits at
    # (v, 0), so corner (p, q) has sublattice translate ((p + 2q) // 7, q).
    cells = np.column_stack([np.arange(7), np.zeros(7, dtype=int)])
    corners = (cells[:, None, None] + _CELL_HALVES).reshape(-1, 3, 2)
    label = corners[..., 0] + 2 * corners[..., 1]
    lattice = np.stack([label // 7, corners[..., 1]], axis=-1)
    return _cover_mesh(label % 7, lattice, cells * (1 / 7))


def perturb(mesh, placement, magnitude, seed):
    """Displace all vertices but vertex 0 by a seeded random field.

    Displacements are uniform in [-magnitude, magnitude]^2. If the
    result is not an embedding the magnitude halves, reusing the same
    field; after 20 halvings PerturbFailedError is raised. Requires an
    embedded input, which guarantees termination for small enough
    magnitudes; a magnitude that is negative, not finite or above
    ``MAX_COORD`` is a ValueError.
    """
    if not 0.0 <= magnitude <= MAX_COORD:
        raise ValueError(
            f"perturb magnitude must be finite, non-negative and at most {MAX_COORD:g}, "
            f"got {magnitude}"
        )
    if not verify_embedding(mesh, placement).is_embedding:
        raise NotEmbeddedError("perturb requires an embedded placement")
    rng = np.random.default_rng(seed)
    field = rng.uniform(-1.0, 1.0, (mesh.vertex_count, 2))
    field[0] = 0.0
    scale = float(magnitude)
    for _ in range(21):
        candidate = Placement(placement.coords + scale * field)
        if verify_embedding(mesh, candidate).is_embedding:
            return candidate
        scale *= 0.5
    raise PerturbFailedError("no embedded placement after 20 halvings")
