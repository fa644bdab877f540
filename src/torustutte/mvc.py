"""Mean value weights, a section of the balanced-placement map.

For an embedded placement, each directed edge (i, j) gets the weight

    w_ij = (tan(a/2) + tan(b/2)) / l_ij

where a and b are the inner angles at vertex i in the two faces next
to the edge, and l_ij is the lifted edge length. These weights balance
the placement exactly, so solving the balance system for them
reproduces the placement: the construction inverts the solver on
embeddings.
"""

import numpy as np

from .errors import NotEmbeddedError
from .geometry import edge_vectors, verify_embedding
from .tutte import WeightAssignment


def _tan_half_angle(u, v):
    """tan of half the unsigned angle between u and v via cross and dot.

    Vectors are indexed by component first, so (2, N) arrays give N values.
    """
    cross = abs(u[0] * v[1] - u[1] * v[0])
    dot = u[0] * v[0] + u[1] * v[1]
    norms = np.hypot(*u) * np.hypot(*v)
    return (norms - dot) / cross


def mean_value_weights(mesh, placement):
    """Mean value weights of an embedded placement.

    Raises NotEmbeddedError unless the placement passes
    :func:`verify_embedding`; the angle formulas need every face
    positively oriented and non-degenerate.
    """
    report = verify_embedding(mesh, placement)
    if not report.is_embedding:
        raise NotEmbeddedError(
            f"placement is not an embedding (min area {report.min_area:.3e}, "
            f"total {report.total_area:.6f})"
        )

    vecs = edge_vectors(mesh, placement).T
    # Edges from i to the third vertices of faces (i, j, k) and (j, i, k'):
    # the reverse of k->i before i->j, and i->k' after j->i.
    c, t = mesh._corner, mesh._corner[mesh.reverse_index]
    left = vecs[:, mesh.reverse_index[mesh.face_edges[c // 3, (c + 2) % 3]]]
    right = vecs[:, mesh.face_edges[t // 3, (t + 1) % 3]]
    values = (_tan_half_angle(vecs, left) + _tan_half_angle(vecs, right)) / np.hypot(*vecs)
    return WeightAssignment(values)


def check_balanced(mesh, placement, weights):
    """Largest vertex imbalance norm of weighted lifted edge sums."""
    vecs = edge_vectors(mesh, placement)
    acc = np.zeros((mesh.vertex_count, 2))
    np.add.at(acc, mesh.directed_edges[:, 0], weights.values[:, None] * vecs)
    return float(np.linalg.norm(acc, axis=1).max())
