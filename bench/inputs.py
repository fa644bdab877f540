"""Seeded benchmark inputs, written as the program's own JSON documents.

Every mesh is an m x m grid torus: vertex x + m*y sits at (x/m, y/m)
and each cell is split along one diagonal. Splitting every cell along
its (+1, +1) diagonal gives exactly the document of ``gen_grid(m)``;
a seeded choice per cell gives irregular vertex degrees between 4 and
8. The documents follow the program's canonical form: faces in cell
order, one shift row per edge with i < j and a nonzero shift, sorted.
"""

import numpy as np

# A displacement of at most 0.1 cell per coordinate keeps every grid
# triangle positively oriented: the doubled area h^2 changes by at most
# 8 h d + 8 d^2 = 0.88 h^2 for d = 0.1 h.
PERTURB_CELLS = 0.1


def grid_doc(m, rng=None):
    """Mesh document of the m x m grid torus, m >= 3.

    With ``rng`` each cell takes a random diagonal; without it every
    cell uses the (+1, +1) diagonal, as ``gen_grid`` does.
    """
    y, x = np.divmod(np.arange(m * m), m)
    x1, y1 = x + 1, y + 1
    # Unwrapped corners a=(x,y), b=(x+1,y), c=(x+1,y+1), d=(x,y+1).
    ux = np.stack([x, x1, x1, x], axis=1)
    uy = np.stack([y, y, y1, y1], axis=1)
    vid = ux % m + m * (uy % m)
    off = np.stack([ux // m, uy // m], axis=2)
    flips = np.zeros(m * m, dtype=bool) if rng is None else rng.integers(0, 2, m * m) == 1
    # Corner indices of the two faces per cell: (a,b,c),(a,c,d) or (a,b,d),(b,c,d).
    corners = np.where(flips[:, None, None], [[0, 1, 3], [1, 2, 3]], [[0, 1, 2], [0, 2, 3]])
    cells = np.arange(m * m)[:, None, None]
    faces = vid[cells, corners].reshape(-1, 3)
    face_off = off[cells, corners].reshape(-1, 3, 2)

    src, dst = faces, np.roll(faces, -1, axis=1)
    shift = np.roll(face_off, -1, axis=1) - face_off
    keep = (src < dst) & (shift != 0).any(axis=2)
    rows = np.column_stack([src[keep], dst[keep], shift[keep]])
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    return {
        "vertex_count": m * m,
        "faces": faces.tolist(),
        "shifts": rows.tolist(),
    }


def grid_coords(m):
    """Grid placement of ``grid_doc(m)``: vertex x + m*y at (x/m, y/m)."""
    y, x = np.divmod(np.arange(m * m), m)
    return np.column_stack([x / m, y / m])


def perturbed_coords(m, rng):
    """Grid placement with every vertex but 0 moved by up to 0.1 cell."""
    field = rng.uniform(-1.0, 1.0, (m * m, 2)) * (PERTURB_CELLS / m)
    field[0] = 0.0
    return grid_coords(m) + field


def placement_doc(coords):
    return {"coords": np.asarray(coords, dtype=float).tolist()}


def random_weights_doc(mesh_doc, rng):
    """U[0.5, 2] weight on every directed edge, sorted by (i, j)."""
    faces = np.asarray(mesh_doc["faces"])
    src = faces.ravel()
    dst = np.roll(faces, -1, axis=1).ravel()
    order = np.lexsort((dst, src))
    values = rng.uniform(0.5, 2.0, len(order))
    return {
        "weights": [
            [int(i), int(j), float(w)]
            for i, j, w in zip(src[order], dst[order], values)
        ]
    }
