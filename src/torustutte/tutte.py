"""Balance systems for weighted torus triangulations and their solver.

Given positive weights w_ij on directed edges, a placement is balanced
when every vertex is the w-weighted average of the lifted positions of
its neighbors. In matrix form A(w) x = b(w), with A carrying weights
off the diagonal and negative weight sums on it, and b collecting the
shift contributions. Because translating x does not change A x, vertex
0 is pinned at the origin and the reduced rectangular system is solved
in the least-squares sense. The minimum of ||A x - b||_F^2 is the
balance energy; weights are admissible when it vanishes, and for
admissible weights the balanced placement is always an embedding.

A(w) has zero row sums and positive off-diagonal entries: it generates
a Markov chain with rates w_ij, whose stationary distribution pi is the
strictly positive left null vector of A. The range of A is the
orthogonal complement of pi, so the least-squares residual is the
projection of -b onto pi, a closed form in the drift d = pi^T b:

    r = -pi d^T / |pi|^2,    energy = |d|^2 / |pi|^2.

It has rank one, every row points along the shared residual direction
-d / |d|, and row norms are reproduced by weighted sums of the edge
projections u_ij onto that direction. The retraction flow is built
entirely from this structure; the residual report stores pi and d and
derives the rest, so nothing is recovered by an SVD.

Each solve factors A[1:, 1:]^T once, by sparse LU, for both pi and the
placement. -A[1:, 1:] is a nonsingular M-matrix (rows diagonally
dominant, strictly next to vertex 0, and the mesh stays connected
without it), so its transpose stays column diagonally dominant under
symmetric permutation and elimination: diagonal pivots are safe, and a
minimum degree ordering of the symmetric pattern replaces a column one.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

from .errors import (
    EmbeddingCheckFailedError,
    NonPositiveWeightError,
    NotAdmissibleError,
    SingularSystemError,
)
from .geometry import Placement, verify_embedding
from .oneform import direction_form

ADMISSIBLE_TOL = 1e-10


@dataclass(frozen=True)
class WeightAssignment:
    """Positive weights on directed edges, aligned with mesh.directed_edges."""

    values: np.ndarray

    def to_dict(self, mesh):
        return {
            (int(i), int(j)): float(w)
            for (i, j), w in zip(mesh.directed_edges, self.values)
        }


def _validated_values(mesh, weights):
    values = np.asarray(weights.values, dtype=float)
    if values.shape != (len(mesh.directed_edges),):
        raise ValueError(
            f"expected {len(mesh.directed_edges)} weights, got shape {values.shape}"
        )
    if not np.isfinite(values).all() or (values <= 0).any():
        raise NonPositiveWeightError("weights must be finite and positive")
    return values


def uniform_weights(mesh, value=1.0):
    if value <= 0:
        raise NonPositiveWeightError("weights must be positive")
    return WeightAssignment(np.full(len(mesh.directed_edges), float(value)))


def weights_from_dict(mesh, mapping):
    """Build a WeightAssignment from a directed-edge keyed mapping."""
    wa = WeightAssignment(mesh.aligned_values(mapping, "weight"))
    _validated_values(mesh, wa)
    return wa


@dataclass(frozen=True)
class BalanceSystem:
    """Matrix A and right-hand side b of the balance equations."""

    matrix: object
    rhs: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Residual structure at the least-squares balance solution.

    Stores the stationary vector ``pi`` (with pi_0 = 1) and the drift
    d = pi^T b; the rank-one residual rows -pi d^T / |pi|^2 and the
    shared direction -d / |d| are derived from them on access.
    ``direction`` and ``projections`` are present exactly when the
    energy exceeds the tolerance; otherwise ``zero_residual`` is set.
    ``projections`` holds u_ij, the component of each lifted edge
    vector along the direction, and ``max_weight_ratio`` is the
    largest w_ij / w_ji, which bounds how unevenly the residual mass
    can spread over vertices.
    """

    pi: np.ndarray
    drift: np.ndarray
    energy: float
    projections: np.ndarray | None
    max_weight_ratio: float
    zero_residual: bool

    @property
    def residuals(self):
        return np.outer(self.pi, -self.drift / float(self.pi @ self.pi))

    @property
    def direction(self):
        return None if self.projections is None else -self.drift / np.linalg.norm(self.drift)


def _assemble(mesh, values, first):
    """CSC arrays of A(w)^T without the vertices below ``first``, and b(w).

    The sorted directed edges are A's off-diagonal entries in row-major
    order, so A^T's in column-major order; each column only gains its
    diagonal -sum_j w_ij, which keeps the weights of masked edges.
    """
    src, dst = mesh.directed_edges.T
    total = mesh.vertex_count
    rhs = np.column_stack([np.bincount(src, -values * s, minlength=total) for s in mesh.shifts.T])
    diag = -np.bincount(src, values, minlength=total)[first:]
    keep = (src >= first) & (dst >= first)
    src, dst, n = src[keep] - first, dst[keep] - first, total - first
    upper = dst > src
    # an edge moves past one diagonal per earlier column, and past its own if above it
    slot = np.arange(len(src)) + src + upper
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n) + 1)]).astype(np.int32)
    at = indptr[:-1] + np.bincount(src[~upper], minlength=n)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    data[slot], data[at] = values[keep], diag
    indices[slot], indices[at] = dst, np.arange(n)
    return (data, indices, indptr), rhs


def assemble_system(mesh, weights):
    """Assemble A(w) as a sparse CSC matrix and b(w) as an (n, 2) array."""
    arrays, rhs = _assemble(mesh, _validated_values(mesh, weights), 0)
    # the CSC arrays of A^T, read row-major, are A
    return BalanceSystem(matrix=scipy.sparse.csr_matrix(arrays).tocsc(), rhs=rhs)


def _solve(mesh, weights, tol):
    """Pinned least squares from one sparse LU of A[1:, 1:]^T.

    That is the matrix the sorted edge table gives, so ``trans`` swaps
    on both solves: a plain solve gives the stationary vector pi with
    pi_0 = 1, the closed form gives residual and energy from d = pi^T b,
    and a transposed solve of the consistent system A x = b + r gives
    the coordinates. Returns (coords, ResidualReport).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    values = _validated_values(mesh, weights)
    arrays, rhs = _assemble(mesh, values, 1)
    matrix = scipy.sparse.csc_matrix(arrays)
    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"reduced balance matrix is singular: {exc}") from exc
    # pi^T A = 0 and pi_0 = 1 leave A[1:, 1:]^T pi[1:] = -A[0, 1:]^T
    deg0 = mesh.degree(0)
    pull = np.bincount(mesh.directed_edges[:deg0, 1] - 1, -values[:deg0], minlength=len(rhs) - 1)
    pi = np.concatenate([[1.0], lu.solve(pull)])
    pi_sq = float(pi @ pi)
    drift = pi @ rhs
    residual = np.outer(pi, -drift / pi_sq)
    free = lu.solve(rhs[1:] + residual[1:], trans="T")
    coords = np.vstack([np.zeros((1, 2)), free])
    drift_norm = float(np.linalg.norm(drift))
    energy = drift_norm**2 / pi_sq
    projections = None
    # a nonfinite solve gets no projections, so the flow can reject it
    if tol < energy < math.inf:
        projections = direction_form(mesh, Placement(coords), -drift / drift_norm).values
    report = ResidualReport(
        pi=pi,
        drift=drift,
        energy=energy,
        projections=projections,
        max_weight_ratio=float((values / values[mesh.reverse_index]).max()),
        zero_residual=energy <= tol,
    )
    return coords, report


def solve_balance(mesh, weights, tol=ADMISSIBLE_TOL):
    """Solve the balance system; returns (placement, residual report)."""
    coords, report = _solve(mesh, weights, tol)
    return Placement(coords), report


def balance_energy(mesh, weights):
    """Minimum of ||A x - b||_F^2 over placements with vertex 0 pinned."""
    return _solve(mesh, weights, ADMISSIBLE_TOL)[1].energy


def is_admissible(mesh, weights, tol=ADMISSIBLE_TOL):
    return _solve(mesh, weights, tol)[1].zero_residual


def residual_structure(mesh, weights, tol=ADMISSIBLE_TOL):
    """Residual report at the least-squares solution for these weights."""
    return _solve(mesh, weights, tol)[1]


def tutte_map(mesh, weights, tol=ADMISSIBLE_TOL):
    """Balanced placement of admissible weights, certified as an embedding.

    Raises NotAdmissibleError when the balance energy exceeds ``tol``
    and EmbeddingCheckFailedError when the certificate is violated,
    which no admissible input should trigger.
    """
    placement, report = solve_balance(mesh, weights, tol)
    if report.energy > tol:
        raise NotAdmissibleError(
            f"balance energy {report.energy:.3e} exceeds tolerance {tol:.3e}"
        )
    certificate = verify_embedding(mesh, placement)
    if not certificate.is_embedding:
        raise EmbeddingCheckFailedError(
            f"balanced placement failed the embedding certificate "
            f"(min area {certificate.min_area:.3e}, total {certificate.total_area:.12f})"
        )
    return placement
