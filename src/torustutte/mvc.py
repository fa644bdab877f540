"""Mean value weights, a section of the balanced-placement map.

For an embedded placement, each directed edge (i, j) gets the weight

    w_ij = (tan(a/2) + tan(b/2)) / l_ij

where a and b are the inner angles at vertex i in the two faces next
to the edge, and l_ij is the lifted edge length. These weights balance
the placement exactly, so solving the balance system for them
reproduces the placement: the construction inverts the solver on
embeddings. Each half angle's tan is computed once per face corner, from
the face vectors the certificate reads; each edge adds its two corners.
"""

import numpy as np

from .errors import NotEmbeddedError
from .geometry import _certificate, _cross, _lifted, edge_vectors
from .tutte import WeightAssignment


def mean_value_weights(mesh, placement):
    """Mean value weights of an embedded placement.

    Raises NotEmbeddedError unless the placement passes
    :func:`~torustutte.geometry.verify_embedding`; the angle formulas
    need every face positively oriented and non-degenerate.
    """
    fv = _lifted(mesh, placement, mesh.face_edges)
    report = _certificate(fv)
    if not report.is_embedding:
        raise NotEmbeddedError(
            f"placement is not an embedding (min area {report.min_area:.3e}, "
            f"total {report.total_area:.6f})"
        )

    # Corner c = 3 * face + slot sits at the slot's vertex i, between the
    # face's edge u = i->j and v = i->k, the reverse of the edge into it.
    # tan of half the angle there is (|u||v| - u.v) / |u x v|.
    u, v = fv, -np.roll(fv, 1, axis=1)
    lengths = np.hypot(fv[..., 0], fv[..., 1])
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    tan = ((lengths * np.roll(lengths, 1, axis=1) - dot) / np.abs(_cross(u, v))).ravel()
    # Edge i->j takes the corner at i in its own face and the corner after
    # its reverse j->i in the face across.
    c, t = mesh._corner, mesh._corner[mesh.reverse_index]
    return WeightAssignment((tan[c] + tan[t - t % 3 + (t + 1) % 3]) / lengths.ravel()[c])


def check_balanced(mesh, placement, weights):
    """Largest vertex imbalance norm of weighted lifted edge sums."""
    vecs = edge_vectors(mesh, placement)
    acc = np.zeros((mesh.vertex_count, 2))
    np.add.at(acc, mesh.directed_edges[:, 0], weights.values[:, None] * vecs)
    return float(np.linalg.norm(acc, axis=1).max())
