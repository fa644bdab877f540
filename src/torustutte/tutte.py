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
SuperLU's multi-column panels pay off on dense fronts (Demmel et al.,
SIMAX 1999); this M-matrix has about seven nonzeros per column and
small fronts, so one-column panels and supernodes relaxed to 4 columns
factor it 1.1 to 1.7 times faster, with the same diagonal pivots.

A solve runs in two phases. ``_factor`` assembles A[1:, 1:]^T and b
with ``_assemble`` on the CSC pattern ``_pattern(mesh)``, which depends
on the mesh alone, factors it, and returns pi, the drift and the energy;
no entry point hands out the full matrix A. ``_finish`` solves for the
coordinates and builds the residual report, with the edge projections
the flow needs.
``_solve`` runs both, so every public entry point sees one solve; the
retraction flow keeps one pattern per run and finishes only the trial
steps it accepts, since a rejected trial needs nothing past its energy.
A solve that is not finite raises NonFiniteStateError once finished.

Only ``_finish`` compares the energy with ``ADMISSIBLE_TOL``, read when
it runs; every admissibility verdict is the report's ``zero_residual``.

``_factor`` is the package's one SciPy user, and imports ``scipy.sparse``
and ``splu`` when it first runs, so importing the package, and every
command that solves nothing, stays clear of SciPy's import cost.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EmbeddingCheckFailedError,
    NonFiniteStateError,
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


def _validated_values(mesh, weights):
    values = np.asarray(weights.values, dtype=float)
    if values.shape != (len(mesh.directed_edges),):
        raise ValueError(
            f"expected {len(mesh.directed_edges)} weights, got shape {values.shape}"
        )
    if not np.isfinite(values).all() or (values <= 0).any():
        raise NonPositiveWeightError("weights must be finite and positive")
    return values


def uniform_weights(mesh):
    return WeightAssignment(np.ones(len(mesh.directed_edges)))


def weights_from_dict(mesh, mapping):
    """Build a WeightAssignment from a directed-edge keyed mapping."""
    wa = WeightAssignment(mesh.aligned_values(mapping, "weight"))
    _validated_values(mesh, wa)
    return wa


@dataclass(frozen=True)
class ResidualReport:
    """Residual structure at the least-squares balance solution.

    Stores the stationary vector ``pi`` (with pi_0 = 1) and the drift
    d = pi^T b; the rank-one residual rows -pi d^T / |pi|^2 and the
    shared direction -d / |d| are derived from them on access.
    ``direction`` and ``projections`` are present exactly when the
    energy exceeds ``ADMISSIBLE_TOL``; otherwise ``zero_residual`` is set.
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


class _Pattern(NamedTuple):
    """Sparsity pattern of A[1:, 1:](w)^T.

    ``keep`` masks the directed edges away from vertex 0, ``slot`` is
    where their weights go in the CSC data and ``at`` where the column
    diagonals go.
    """

    keep: np.ndarray
    slot: np.ndarray
    at: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _pattern(mesh):
    """CSC pattern of A[1:, 1:](w)^T.

    The sorted directed edges are A's off-diagonal entries in row-major
    order, so A^T's in column-major order; each column only gains its
    diagonal. The pattern depends on the mesh alone, so one serves every
    weight vector.
    """
    src, dst = mesh.directed_edges.T
    keep = (src > 0) & (dst > 0)
    src, dst, n = src[keep] - 1, dst[keep] - 1, mesh.vertex_count - 1
    upper = dst > src
    # an edge moves past one diagonal per earlier column, and past its own if above it
    slot = np.arange(len(src)) + src + upper
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n) + 1)]).astype(np.int32)
    at = indptr[:-1] + np.bincount(src[~upper], minlength=n)
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[slot], indices[at] = dst, np.arange(n)
    return _Pattern(keep, slot, at, indices, indptr)


def _assemble(mesh, values, pattern):
    """CSC arrays of A[1:, 1:](w)^T on ``pattern``, and b(w).

    Each diagonal -sum_j w_ij keeps the weights of the edges to vertex 0.
    """
    src = mesh.directed_edges[:, 0]
    total = mesh.vertex_count
    rhs = np.column_stack([np.bincount(src, -values * s, minlength=total) for s in mesh.shifts.T])
    data = np.empty(len(pattern.indices))
    data[pattern.slot] = values[pattern.keep]
    data[pattern.at] = -np.bincount(src, values, minlength=total)[1:]
    return (data, pattern.indices, pattern.indptr), rhs


@dataclass(frozen=True)
class _Factored:
    """First phase of a solve: the factor, pi and the energy, no coordinates."""

    values: np.ndarray
    lu: object
    rhs: np.ndarray
    pi: np.ndarray
    drift: np.ndarray
    energy: float


def _factor(mesh, values, pattern):
    """One sparse LU of A[1:, 1:]^T, then pi, the drift and the energy.

    That is the matrix the sorted edge table gives, so a plain solve
    gives the stationary vector pi with pi_0 = 1, and the closed form
    gives the energy from d = pi^T b. ``pattern`` is ``_pattern(mesh)``.
    Nonfinite values pass through: the caller decides what they mean.
    SciPy loads at the first call.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    arrays, rhs = _assemble(mesh, values, pattern)
    try:
        lu = splu(
            csc_matrix(arrays),
            permc_spec="MMD_AT_PLUS_A",
            relax=4,
            panel_size=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystemError(f"reduced balance matrix is singular: {exc}") from exc
    # pi^T A = 0 and pi_0 = 1 leave A[1:, 1:]^T pi[1:] = -A[0, 1:]^T
    deg0 = mesh.degree(0)
    pull = np.bincount(mesh.directed_edges[:deg0, 1] - 1, -values[:deg0], minlength=len(rhs) - 1)
    pi = np.concatenate([[1.0], lu.solve(pull)])
    with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite energy is a verdict
        drift = pi @ rhs
        energy = float(np.linalg.norm(drift)) ** 2 / float(pi @ pi)
    return _Factored(values, lu, rhs, pi, drift, energy)


def _finish(mesh, factored):
    """Second phase of a solve: coordinates and the residual report.

    A transposed solve of the consistent system A x = b + r gives the
    coordinates; the edge projections follow when the energy exceeds
    ``ADMISSIBLE_TOL``. Raises NonFiniteStateError when pi, the energy
    or the coordinates are not finite. Returns (coords, ResidualReport).
    """
    pi, drift, energy, values = factored.pi, factored.drift, factored.energy, factored.values
    with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite solve is raised below
        residual = np.outer(pi[1:], -drift / float(pi @ pi))
        free = factored.lu.solve(factored.rhs[1:] + residual, trans="T")
    coords = np.vstack([np.zeros((1, 2)), free])
    if not (math.isfinite(energy) and np.isfinite(pi).all() and np.isfinite(free).all()):
        raise NonFiniteStateError(
            f"balance solve is not finite (energy {energy}): the weights overflow float range"
        )
    zero_residual = energy <= ADMISSIBLE_TOL
    projections = None
    if not zero_residual:
        direction = -drift / float(np.linalg.norm(drift))
        projections = direction_form(mesh, Placement(coords), direction).values
    with np.errstate(over="ignore"):  # a ratio past float range reads inf
        ratio = float((values / values[mesh.reverse_index]).max())
    report = ResidualReport(
        pi=pi,
        drift=drift,
        energy=energy,
        projections=projections,
        max_weight_ratio=ratio,
        zero_residual=zero_residual,
    )
    return coords, report


def _solve(mesh, weights):
    """Pinned least squares: ``_factor`` then ``_finish``, from one LU.

    Returns (coords, ResidualReport); raises NonFiniteStateError when
    the solve is not finite.
    """
    values = _validated_values(mesh, weights)
    return _finish(mesh, _factor(mesh, values, _pattern(mesh)))


def solve_balance(mesh, weights):
    """Solve the balance system; returns (placement, residual report)."""
    coords, report = _solve(mesh, weights)
    return Placement(coords), report


def balance_energy(mesh, weights):
    """Minimum of ||A x - b||_F^2 over placements with vertex 0 pinned."""
    return _solve(mesh, weights)[1].energy


def residual_structure(mesh, weights):
    """Residual report at the least-squares solution for these weights."""
    return _solve(mesh, weights)[1]


def _certify(mesh, placement):
    """The embedding certificate of a balanced placement; raises
    EmbeddingCheckFailedError when it is violated."""
    certificate = verify_embedding(mesh, placement)
    if not certificate.is_embedding:
        raise EmbeddingCheckFailedError(
            f"balanced placement failed the embedding certificate "
            f"(min area {certificate.min_area:.3e}, total {certificate.total_area:.12f})"
        )
    return certificate


def _certified_map(mesh, weights):
    """``tutte_map`` that also returns the certificate it computed."""
    placement, report = solve_balance(mesh, weights)
    if not report.zero_residual:
        raise NotAdmissibleError(
            f"balance energy {report.energy:.3e} exceeds tolerance {ADMISSIBLE_TOL:.3e}"
        )
    return placement, _certify(mesh, placement)


def tutte_map(mesh, weights):
    """Balanced placement of admissible weights, certified as an embedding.

    Raises NotAdmissibleError when the balance energy exceeds
    ``ADMISSIBLE_TOL`` and EmbeddingCheckFailedError when the
    certificate is violated, which no admissible input should trigger.
    """
    return _certified_map(mesh, weights)[0]
