"""Retraction flow from arbitrary positive weights to admissible ones.

The flow multiplies each weight by two smooth gates,

    dw_ij/dt = w_ij * G((w_ij + w_ji) u_ij / alpha) * H(w_ij - w_ji),

where u_ij projects the lifted edge vector onto the shared residual
direction. G switches on only for edges whose projection is negative
enough, H switches off once w_ij outruns its reverse by 2. Both are
plateaued mollifier ramps, so the field is smooth, keeps weights
growing at most exponentially, never decreases them, and strictly
dissipates the balance energy at a rate bounded through a handful of
derived constants:

    loop_gap    guaranteed depth of the most negative projection,
                1 / (sqrt(2) * max generator loop length)
    min_weight  smallest weight, never decreases along the flow
    asym_bound  max(2, largest |w_ij - w_ji|), never increases
    gate_scale  loop_gap / (2 E + sum of 1/w_ij), the G argument scale
    decay_rate  lower bound on -d sqrt(energy)/dt
    time_bound  2 sqrt(energy) / decay_rate, time to reach energy zero

Integration is explicit Euler with step acceptance: a step counts only
if the energy strictly drops and the asymmetry bound does not grow;
otherwise the step halves and the trial is solved again. The residual
report gives the energy gradient in closed form, by the envelope theorem

    dE/dw_ij = 2 sqrt(E) pi_i u_ij / |pi|,

so the slope s = sum_ij v_ij dE/dw_ij along the field costs no extra
solve (Nocedal & Wright, Numerical Optimization, ch. 3). Every step's
first trial is dt = E / -s, where the linear model of the energy at the
step's start reaches zero, clipped to [DT_MIN, DT_MAX]. A trial solve
stops at the energy; only an accepted one goes on to the coordinates and
the edge projections.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError
from .mesh import generator_loops
from .tutte import (
    WeightAssignment,
    _factor,
    _finish,
    _pattern,
    _validated_values,
    balance_energy,
)

CONVERGED = "converged"
BUDGET_EXCEEDED = "budget_exceeded"
ALREADY_ADMISSIBLE = "already_admissible"
STALLED = "stalled"

# bounds of every trial step; each step's first one comes from the energy slope
DT_MIN = 1e-8
DT_MAX = 0.25


@dataclass(frozen=True)
class FlowConstants:
    loop_gap: float
    min_weight: float
    asym_bound: float
    gate_scale: float
    decay_rate: float
    time_bound: float
    # natural logarithms of the two above, finite where those underflow
    log_decay_rate: float
    log_time_bound: float


@dataclass(frozen=True)
class FlowSample:
    """State recorded after one accepted step (or the initial state)."""

    t: float
    weights: np.ndarray
    energy: float
    min_weight: float
    asym_bound: float


@dataclass(frozen=True)
class FlowTrace:
    """Every accepted state in order, the initial one first, and how the run ended."""

    samples: list
    status: str
    steps = property(lambda self: len(self.samples) - 1, doc="Accepted steps.")
    final_weights = property(
        lambda self: WeightAssignment(self.samples[-1].weights), doc="Last sample's weights."
    )


def _ramp(t):
    """Smooth ramp: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(np.clip(t, 0.0, 1.0))  # the plateaus; the exponentials only between
    mid = (t > 0) & (t < 1)
    inner = t[mid]
    with np.errstate(over="ignore"):  # 1 / t overflows on a subnormal t; exp(-inf) is 0
        lo, hi = np.exp(-1.0 / inner), np.exp(-1.0 / (1.0 - inner))
    out[mid] = lo / (lo + hi)
    return out


def projection_gate(s):
    """Gate on scaled projections: 1 at or below -1, 0 at or above 0."""
    out = 1.0 - _ramp(np.asarray(s, dtype=float) + 1.0)
    return float(out) if np.ndim(s) == 0 else out


def asymmetry_gate(s):
    """Gate on w_ij - w_ji: 1 at or below 1, 0 at or above 2."""
    out = 1.0 - _ramp(np.asarray(s, dtype=float) - 1.0)
    return float(out) if np.ndim(s) == 0 else out


def loop_gap(mesh):
    """1 / (sqrt(2) * length of the longer generator loop).

    Any closed walks with shift sums (1,0) and (0,1) serve: the
    projections of a closed walk's lifted edges onto a unit d sum to
    d . (shift sum).
    """
    loops = generator_loops(mesh)
    k = max(len(loops.horizontal), len(loops.vertical))
    return 1.0 / (np.sqrt(2.0) * k)


def _asym_bound(values, rev):
    return max(2.0, float(np.abs(values - values[rev]).max()))


def _gate_scale(mesh, values):
    """Scale of the projection gate's argument: loop_gap / (2 E + sum 1/w)."""
    return loop_gap(mesh) / (2.0 * mesh.edge_count + float((1.0 / values).sum()))


def flow_constants(mesh, weights):
    """Derived constants of the flow at the given weights.

    The time bound reads the balance energy of the weights. The decay
    rate is formed through its logarithm; when it underflows it is 0.0
    and the time bound is infinite, while both logarithms stay finite.
    """
    values = _validated_values(mesh, weights)
    energy = balance_energy(mesh, weights)
    gap = loop_gap(mesh)
    n = mesh.vertex_count
    lo = float(values.min())
    asym = _asym_bound(values, mesh.reverse_index)
    log_rate = math.log(gap * lo / asym) - math.log(2.0 * math.sqrt(n))
    log_rate -= (n - 1) * math.log1p(asym / lo)
    decay_rate = math.exp(log_rate)
    return FlowConstants(
        loop_gap=gap,
        min_weight=lo,
        asym_bound=asym,
        gate_scale=_gate_scale(mesh, values),
        decay_rate=decay_rate,
        time_bound=2.0 * math.sqrt(energy) / decay_rate if decay_rate > 0 else math.inf,
        log_decay_rate=log_rate,
        log_time_bound=math.log(2.0 * math.sqrt(energy)) - log_rate if energy > 0 else -math.inf,
    )


def _velocity(mesh, values, u):
    """Euler field at the current state from the edge projections ``u``."""
    back = values[mesh.reverse_index]
    return values * projection_gate(
        (values + back) * u / _gate_scale(mesh, values)
    ) * asymmetry_gate(values - back)


def _energy_slope(mesh, report, velocity):
    """dE/dt along ``velocity``: sum_ij v_ij * 2 sqrt(E) pi_i u_ij / |pi|."""
    pi = report.pi
    flux = velocity @ (pi[mesh.directed_edges[:, 0]] * report.projections)
    return 2.0 * math.sqrt(report.energy) * float(flux) / float(np.linalg.norm(pi))


def retract(mesh, weights, max_steps=200_000):
    """Integrate the flow until the weights become admissible.

    Explicit Euler with acceptance control: a trial step is accepted
    only if all weights stay finite and positive, the balance energy
    strictly decreases, and the asymmetry bound does not grow; on
    rejection the step halves down to ``DT_MIN``. Every step first tries
    E / -s, where the energy's linear model along the current velocity
    reaches zero, clipped to [``DT_MIN``, ``DT_MAX``]. Each trial
    factors the balance system once. Returns a FlowTrace whose samples
    record every accepted state; status is ``converged``,
    ``already_admissible``, ``budget_exceeded`` (``max_steps`` accepted
    steps ran out), or ``stalled`` (every trial failed down to
    ``DT_MIN``); the best weights found are still returned. A negative
    or non-integer ``max_steps`` is a ValueError, raised before any solve.
    """
    return _retract(mesh, weights, max_steps)[0]


def _retract(mesh, weights, max_steps):
    """``retract``, plus the balanced coordinates of the last sample."""
    if not isinstance(max_steps, numbers.Integral) or max_steps < 0:
        raise ValueError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    values = _validated_values(mesh, weights).copy()
    rev = mesh.reverse_index
    # one CSC pattern serves every trial of this run
    pattern = _pattern(mesh)
    factored = _factor(mesh, values, pattern)
    if not factored.energy < math.inf:
        raise NonFiniteStateError(f"balance energy of the initial weights is {factored.energy}")
    coords, report = _finish(mesh, factored)
    samples = [
        FlowSample(0.0, values, report.energy, float(values.min()), _asym_bound(values, rev))
    ]
    if report.zero_residual:
        return FlowTrace(samples, ALREADY_ADMISSIBLE), coords
    # sum 1/w only shrinks as the weights grow, so a scale positive here stays so
    with np.errstate(over="ignore"):
        scale = _gate_scale(mesh, values)
    if not scale > 0:
        raise NonFiniteStateError(
            f"flow gate scale underflows to {scale}: the sum of 1 / w leaves float "
            f"range (smallest weight {values.min()})"
        )

    while len(samples) <= max_steps:  # the initial state plus one per accepted step
        velocity = _velocity(mesh, values, report.projections)
        slope = _energy_slope(mesh, report, velocity)
        asym = samples[-1].asym_bound
        # where the linear model of the energy reaches zero; no division
        # unless the slope is negative enough (not zero, positive or nan)
        dt = DT_MAX if not -slope * DT_MAX > report.energy else max(DT_MIN, report.energy / -slope)
        while dt >= DT_MIN:
            trial = values + dt * velocity
            if not np.isfinite(trial).all() or (trial <= 0).any():
                if dt * 0.5 < DT_MIN:
                    raise NonFiniteStateError("flow state left the positive cone")
                dt *= 0.5
                continue
            factored = _factor(mesh, trial, pattern)
            if np.isfinite(factored.energy) and factored.energy < report.energy:
                bound = _asym_bound(trial, rev)
                if bound <= asym + 1e-12:
                    break
            dt *= 0.5
        else:  # every trial failed before dt fell below DT_MIN
            return FlowTrace(samples, STALLED), coords
        values = trial
        coords, report = _finish(mesh, factored)
        samples.append(FlowSample(
            samples[-1].t + dt, values, report.energy, float(values.min()), bound
        ))
        if report.zero_residual:
            return FlowTrace(samples, CONVERGED), coords
    return FlowTrace(samples, BUDGET_EXCEEDED), coords
