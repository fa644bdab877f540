import math

import numpy as np
import pytest

import helpers
import torustutte.flow
import torustutte.tutte
from torustutte import (
    ALREADY_ADMISSIBLE,
    BUDGET_EXCEEDED,
    CONVERGED,
    STALLED,
    WeightAssignment,
    asymmetry_gate,
    balance_energy,
    build_mesh,
    flow_constants,
    gen_grid,
    loop_gap,
    mean_value_weights,
    perturb,
    projection_gate,
    residual_structure,
    retract,
    tutte_map,
    uniform_weights,
)
from torustutte.errors import NonFiniteStateError
from torustutte.flow import DT_MAX, _energy_slope, _retract

GRID3_GAP = 0.23570226039551584  # 1 / (3 sqrt 2)


def single_asymmetry(mesh, value=5.0):
    values = np.ones(len(mesh.directed_edges))
    values[helpers.edge_id(mesh, 0, 1)] = value
    return WeightAssignment(values)


# ---------------------------------------------------------------------------
# Gates

def test_gate_plateaus_exact():
    assert projection_gate(-1.0) == 1.0
    assert projection_gate(-5.0) == 1.0
    assert projection_gate(0.0) == 0.0
    assert projection_gate(3.0) == 0.0
    assert asymmetry_gate(1.0) == 1.0
    assert asymmetry_gate(-2.0) == 1.0
    assert asymmetry_gate(2.0) == 0.0
    assert asymmetry_gate(7.0) == 0.0


def test_gates_monotone_and_bounded():
    s = np.linspace(-3.0, 3.0, 2001)
    for gate in (projection_gate, asymmetry_gate):
        vals = gate(s)
        assert vals.shape == s.shape
        assert (vals >= 0.0).all() and (vals <= 1.0).all()
        assert (np.diff(vals) <= 1e-15).all()
    # strictly decreasing inside each transition band
    assert projection_gate(-0.5) > projection_gate(-0.2) > projection_gate(-0.05)
    assert asymmetry_gate(1.2) > asymmetry_gate(1.5) > asymmetry_gate(1.9)


def test_gate_midpoint_symmetry():
    """The mollifier construction is symmetric around the band center."""
    assert projection_gate(-0.5) == pytest.approx(0.5, abs=1e-12)
    assert asymmetry_gate(1.5) == pytest.approx(0.5, abs=1e-12)
    for d in (0.1, 0.25, 0.4):
        assert projection_gate(-0.5 - d) + projection_gate(-0.5 + d) == (
            pytest.approx(1.0, abs=1e-12)
        )


# ramp arguments on both plateaus, at both edges and inside the band
RAMP_POINTS = [
    -math.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 1e-3, 0.5, 1 - 2**-53, 1.0, 1e300, math.inf,
]


def test_gates_match_the_ramp_oracle():
    """Both gates equal the ramp formula that evaluated both exponentials on
    every entry, bit for bit, on scalars and on arrays."""
    t = np.array(RAMP_POINTS)
    s = np.concatenate([t, t - 1.0, t + 1.0, np.random.default_rng(0).uniform(-2, 3, 300)])
    for gate, shift in ((projection_gate, 1.0), (asymmetry_gate, -1.0)):
        want = 1.0 - helpers.oracle_ramp(s + shift)
        assert gate(s).tobytes() == want.tobytes()
        assert gate(s.reshape(-1, 3)).tobytes() == want.tobytes()
        for x, w in zip(s.tolist(), want.tolist()):
            got = gate(x)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(w).tobytes()
        assert math.isnan(gate(math.nan)) and np.isnan(gate(np.array([math.nan]))).all()


# ---------------------------------------------------------------------------
# Constants

def test_loop_gap_values(grid3, grid4, grid5, k7):
    assert loop_gap(grid3[0]) == pytest.approx(GRID3_GAP, rel=1e-15)
    assert loop_gap(grid3[0]) == pytest.approx(1 / (3 * math.sqrt(2)), rel=1e-15)
    assert loop_gap(grid4[0]) == pytest.approx(1 / (4 * math.sqrt(2)), rel=1e-15)
    assert loop_gap(grid5[0]) == pytest.approx(1 / (5 * math.sqrt(2)), rel=1e-15)
    # the K7 torus has generator lengths 7 and 3; the longer one counts
    assert loop_gap(k7[0]) == pytest.approx(1 / (7 * math.sqrt(2)), rel=1e-15)


def test_flow_constants_uniform_grid(grid3):
    mesh, _ = grid3
    weights = uniform_weights(mesh)
    constants = flow_constants(mesh, weights)
    gap = constants.loop_gap
    assert gap == pytest.approx(GRID3_GAP, rel=1e-15)
    assert constants.min_weight == 1.0
    assert constants.asym_bound == 2.0  # floor value for symmetric weights
    # 2|E| + sum of 1/w = 54 + 54 = 108 directed-edge units
    assert constants.gate_scale == pytest.approx(gap / 108.0, rel=1e-14)
    assert constants.gate_scale == pytest.approx(0.0021824283369955167, rel=1e-13)
    # (gap L / M) / (2 sqrt(9) (1 + M/L)^8) = gap / (2 * 2 * 3 * 3**8)
    assert constants.decay_rate == pytest.approx(gap / 78732.0, rel=1e-13)
    assert constants.decay_rate == pytest.approx(2.9937288573326703e-06, rel=1e-12)
    assert constants.time_bound == pytest.approx(
        2.0 * math.sqrt(balance_energy(mesh, weights)) / constants.decay_rate, rel=1e-13
    )


def test_flow_constants_log_form():
    """The log fields stay finite where decay_rate underflows, and match it where it does not."""
    rng = np.random.default_rng(0)
    mesh, _ = gen_grid(32)
    constants = flow_constants(mesh, WeightAssignment(rng.uniform(0.5, 2.0, len(mesh.shifts))))
    assert constants.decay_rate == 0.0 and constants.time_bound == math.inf
    assert math.isfinite(constants.log_decay_rate) and math.isfinite(constants.log_time_bound)
    mesh, _ = gen_grid(3)
    constants = flow_constants(mesh, WeightAssignment(rng.uniform(0.5, 2.0, len(mesh.shifts))))
    assert constants.decay_rate > 0.0
    assert math.exp(constants.log_decay_rate) == pytest.approx(constants.decay_rate, rel=1e-12)
    assert math.exp(constants.log_time_bound) == pytest.approx(constants.time_bound, rel=1e-12)


def test_flow_constants_computes_energy(grid3):
    mesh, _ = grid3
    weights = single_asymmetry(mesh)
    energy = balance_energy(mesh, weights)
    constants = flow_constants(mesh, weights)
    assert constants.time_bound == pytest.approx(
        2.0 * math.sqrt(energy) / constants.decay_rate, rel=1e-12
    )
    assert constants.min_weight == 1.0
    assert constants.asym_bound == pytest.approx(4.0)  # |5 - 1| on one edge


def test_flow_constants_underflow_is_explicit():
    """Six decades of weight spread at 64 vertices: the rate bound leaves float range."""
    mesh, _ = gen_grid(8)
    rng = np.random.default_rng(11)
    weights = WeightAssignment(10.0 ** rng.uniform(-3.0, 3.0, len(mesh.directed_edges)))
    constants = flow_constants(mesh, weights)
    assert constants.decay_rate == 0.0
    assert constants.time_bound == math.inf
    assert constants.gate_scale > 0


# ---------------------------------------------------------------------------
# Velocity field

def test_velocity_gate_implications(grid3, rng):
    mesh, _ = grid3
    rev = mesh.reverse_index
    for _ in range(10):
        values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
        weights = WeightAssignment(values)
        report = residual_structure(mesh, weights)
        theta = helpers.flow_velocity(mesh, weights)
        u = report.projections
        assert (theta >= 0.0).all()
        assert (theta <= values + 1e-15).all()
        # gates vanish exactly on their plateaus
        assert np.all(theta[u >= 0.0] == 0.0)
        gap = values - values[rev]
        assert np.all(theta[gap >= 2.0] == 0.0)
        # fully open gates pass the weight through unchanged
        constants = flow_constants(mesh, weights)
        open_mask = ((values + values[rev]) * u <= -constants.gate_scale) & (
            gap <= 1.0
        )
        assert open_mask.any()
        assert np.array_equal(theta[open_mask], values[open_mask])


def test_velocity_rejects_admissible(grid3):
    """Admissible weights have no residual direction, so no edge projections to drive the field."""
    mesh, _ = grid3
    report = residual_structure(mesh, uniform_weights(mesh))
    assert report.zero_residual
    assert report.projections is None and report.direction is None


def test_projection_lower_bound(grid3, rng):
    """Some edge always projects at least loop_gap into the residual."""
    mesh, _ = grid3
    for _ in range(20):
        values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
        report = residual_structure(mesh, WeightAssignment(values))
        assert report.projections.min() <= -GRID3_GAP


def test_dissipation_bound(grid3, rng):
    mesh, _ = grid3
    for _ in range(10):
        values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
        weights = WeightAssignment(values)
        report = residual_structure(mesh, weights)
        theta = helpers.flow_velocity(mesh, weights)
        constants = flow_constants(mesh, weights)
        dissipation = float(np.dot(report.projections, theta))
        bound = -constants.loop_gap * constants.min_weight / (
            2.0 * constants.asym_bound
        )
        assert dissipation <= bound + 1e-12


# ---------------------------------------------------------------------------
# Retraction

def test_retract_converges(grid3):
    mesh, _ = grid3
    trace = retract(mesh, single_asymmetry(mesh))
    assert trace.status == CONVERGED
    assert residual_structure(mesh, trace.final_weights).zero_residual
    assert trace.samples[-1].energy <= 1e-10
    assert trace.steps == len(trace.samples) - 1
    assert trace.samples[0].t == 0.0


def test_retract_trajectory_invariants(grid3):
    mesh, _ = grid3
    trace = retract(mesh, single_asymmetry(mesh))
    samples = trace.samples
    energies = [s.energy for s in samples]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    min_weights = [s.min_weight for s in samples]
    assert all(b >= a - 1e-15 for a, b in zip(min_weights, min_weights[1:]))
    asym = [s.asym_bound for s in samples]
    assert all(b <= a + 1e-12 for a, b in zip(asym, asym[1:]))
    start = samples[0].weights
    for prev, cur in zip(samples, samples[1:]):
        dt = cur.t - prev.t
        assert dt > 0
        delta = cur.weights - prev.weights
        assert delta.min() >= 0.0
        # 1e-9 slack absorbs the roundoff of recovering dt from the
        # accumulated times; the velocity itself never exceeds w
        assert np.all(delta <= prev.weights * dt * (1.0 + 1e-9))
        # integrated growth stays below the exponential envelope
        assert np.all(cur.weights <= start * np.exp(cur.t) * (1.0 + 1e-12))


def test_retract_samples_match_energy_oracle(grid3):
    mesh, _ = grid3
    trace = retract(mesh, single_asymmetry(mesh))
    for sample in trace.samples:
        _, _, energy = helpers.oracle_solve(mesh, sample.weights)
        assert sample.energy == pytest.approx(energy, rel=1e-6, abs=1e-12)


def test_retract_already_admissible(grid3):
    mesh, _ = grid3
    trace = retract(mesh, uniform_weights(mesh))
    assert trace.status == ALREADY_ADMISSIBLE
    assert trace.steps == 0
    assert len(trace.samples) == 1
    assert np.array_equal(trace.final_weights.values, uniform_weights(mesh).values)


def test_retract_budget_exceeded(grid3):
    mesh, _ = grid3
    weights = single_asymmetry(mesh)
    trace = retract(mesh, weights, max_steps=2)
    assert trace.status == BUDGET_EXCEEDED
    assert trace.steps == 2
    # partial progress is still progress
    assert trace.samples[-1].energy < trace.samples[0].energy


def test_retract_stall_is_not_a_spent_budget():
    """Weights scaled by 1e4 reach the float floor of their energy, far above
    the admissible tolerance; every trial then fails down to DT_MIN."""
    mesh, _ = gen_grid(16)
    values = np.random.default_rng(0).uniform(0.5, 2.0, len(mesh.directed_edges))
    trace = retract(mesh, WeightAssignment(values * 1e4), max_steps=2000)
    assert trace.status == STALLED
    assert trace.steps < 2000
    assert trace.samples[-1].energy < trace.samples[0].energy
    short = retract(mesh, WeightAssignment(values * 1e4), max_steps=2)
    assert (short.status, short.steps) == (BUDGET_EXCEEDED, 2)


@pytest.mark.parametrize("max_steps", [-1, 2.0, 1.5, "3", None])
def test_retract_rejects_bad_step_budget(grid3, monkeypatch, max_steps):
    mesh, _ = grid3
    solves = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    with pytest.raises(ValueError, match="max_steps must be a nonnegative integer"):
        retract(mesh, single_asymmetry(mesh), max_steps=max_steps)
    assert solves[0] == 0


def test_retract_idempotent(grid3):
    mesh, _ = grid3
    trace = retract(mesh, single_asymmetry(mesh))
    again = retract(mesh, trace.final_weights)
    assert again.status == ALREADY_ADMISSIBLE
    assert np.array_equal(again.final_weights.values, trace.final_weights.values)


def test_retract_deterministic(grid3, rng):
    mesh, _ = grid3
    values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
    a = retract(mesh, WeightAssignment(values.copy()))
    b = retract(mesh, WeightAssignment(values.copy()))
    assert a.status == b.status
    assert a.steps == b.steps
    assert np.array_equal(a.final_weights.values, b.final_weights.values)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.t == sb.t and np.array_equal(sa.weights, sb.weights)


def test_retract_endpoint_stability(grid3):
    """Nearby starts land on nearby embeddings."""
    mesh, _ = grid3
    base = single_asymmetry(mesh).values
    bumped = base.copy()
    bumped[7] += 1e-6
    end_a = tutte_map(mesh, retract(mesh, WeightAssignment(base)).final_weights)
    end_b = tutte_map(mesh, retract(mesh, WeightAssignment(bumped)).final_weights)
    assert np.abs(end_a.coords - end_b.coords).max() <= 1e-3


def test_retract_respects_time_bound(grid3, rng):
    mesh, _ = grid3
    values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
    weights = WeightAssignment(values)
    constants = flow_constants(mesh, weights)
    trace = retract(mesh, weights)
    assert trace.status == CONVERGED
    assert trace.samples[-1].t <= constants.time_bound


def test_retract_dissipation_along_trajectory(grid3):
    """Every recorded non-admissible state keeps dissipating."""
    mesh, _ = grid3
    trace = retract(mesh, single_asymmetry(mesh))
    for sample in trace.samples:
        if sample.energy <= 1e-10:
            continue
        weights = WeightAssignment(sample.weights)
        report = residual_structure(mesh, weights)
        theta = helpers.flow_velocity(mesh, weights)
        constants = flow_constants(mesh, weights)
        bound = -constants.loop_gap * constants.min_weight / (
            2.0 * constants.asym_bound
        )
        assert float(np.dot(report.projections, theta)) <= bound + 1e-12


def test_retract_rejects_initial_weights_without_finite_solve():
    """Weights 1e300 and 1e-300 overflow the solve; the flow reports it, not a TypeError."""
    mesh, _ = gen_grid(3)
    coin = np.random.default_rng(0).random(len(mesh.directed_edges)) < 0.5
    with pytest.raises(NonFiniteStateError, match="balance energy of the initial weights"):
        retract(mesh, WeightAssignment(np.where(coin, 1e300, 1e-300)))


def test_retract_names_an_underflowing_gate_scale(monkeypatch):
    """A weight of 5e-324 solves, but 1 / w overflows the gate scale's sum: the
    flow says so before its first trial, not as a NaN velocity."""
    mesh, _ = gen_grid(4)
    values = uniform_weights(mesh).values.copy()
    values[0] = 5e-324
    factors = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    with pytest.raises(NonFiniteStateError, match="gate scale underflows to 0.0"):
        retract(mesh, WeightAssignment(values))
    assert factors[0] == 1


def test_energy_slope_matches_central_difference(grid6):
    """The closed-form dE/dt along the field agrees with a central difference."""
    faces, shifts = helpers.random_diagonal_grid(5, np.random.default_rng(3))
    for mesh in (grid6[0], build_mesh(faces, shifts)):
        values = np.random.default_rng(0).uniform(0.5, 2.0, len(mesh.directed_edges))
        weights = WeightAssignment(values)
        velocity = helpers.flow_velocity(mesh, weights)
        slope = _energy_slope(mesh, residual_structure(mesh, weights), velocity)
        h = 1e-5
        ahead = balance_energy(mesh, WeightAssignment(values + h * velocity))
        behind = balance_energy(mesh, WeightAssignment(values - h * velocity))
        assert slope < 0
        assert slope == pytest.approx((ahead - behind) / (2 * h), rel=1e-8)


def test_rejected_trials_stop_at_the_energy(monkeypatch):
    """Only accepted states get a coordinate solve and edge projections."""
    mesh, _ = gen_grid(8)
    values = 10 ** np.random.default_rng(3).uniform(-3.0, 3.0, len(mesh.directed_edges))
    factors = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    finishes = helpers.counting(monkeypatch, torustutte.flow, "_finish")
    projections = helpers.counting(monkeypatch, torustutte.tutte, "direction_form")
    trace = retract(mesh, WeightAssignment(values))
    assert trace.status == CONVERGED
    assert factors[0] > finishes[0]  # some trials were rejected
    assert finishes[0] == trace.steps + 1
    # every finished state but the admissible last one is projected
    assert projections[0] == trace.steps


def test_retract_coordinates_are_the_tutte_map():
    """The placement _retract hands back is tutte_map of its final weights, bit for bit."""
    mesh, _ = gen_grid(6)
    values = np.random.default_rng(0).uniform(0.5, 2.0, len(mesh.directed_edges))
    for weights in (WeightAssignment(values), uniform_weights(mesh)):
        trace, coords = _retract(mesh, weights, 200_000)
        assert np.array_equal(coords, tutte_map(mesh, trace.final_weights).coords)


# (m, weights, seed, status, steps, final energy, final t, balance solves) as
# recorded with every step's first trial at the linear model's zero; the
# solves count the initial one. With that start on the first step only and
# a ratio test after each accepted step, these runs took 16/25, 17/28,
# 23/30, 16/24, 12/22 and 21/33 steps/solves; with a first trial of 0.01,
# 19/27, 20/29, 27/34, 17/24, 18/26 and 23/37; and the doubling rule before
# the ratio test took 46, 46, 68, 44, 39 and 56 solves. Another
# factorization of the same matrix may move last bits, never an accepted step.
PINNED_RETRACTIONS = [
    (8, "uniform", 0, CONVERGED, 18, 3.885876368954292e-11, 0.08555611938744438, 19),
    (8, "log-uniform", 1, CONVERGED, 20, 5.5978421089567785e-11, 1.5638520041445156, 21),
    (8, "log-uniform", 2, CONVERGED, 23, 5.245861723018038e-11, 1.8294834110305256, 24),
    (12, "uniform", 0, CONVERGED, 17, 6.01381979697374e-11, 0.08430563789499654, 18),
    (12, "log-uniform", 1, CONVERGED, 16, 4.771303072076824e-11, 0.9842496483797125, 17),
    (12, "log-uniform", 2, CONVERGED, 28, 5.316878728714621e-11, 0.8326445820131063, 30),
]


@pytest.mark.parametrize(
    "m, kind, seed, status, steps, energy, t, solves",
    PINNED_RETRACTIONS,
    ids=[f"{m}-{kind}-{seed}" for m, kind, seed, *_ in PINNED_RETRACTIONS],
)
def test_retract_trajectory_pinned(monkeypatch, m, kind, seed, status, steps, energy, t, solves):
    mesh, _ = gen_grid(m)
    rng = np.random.default_rng(seed)
    count = len(mesh.directed_edges)
    values = rng.uniform(0.5, 2.0, count) if kind == "uniform" else 10 ** rng.uniform(-2, 2, count)
    factors = helpers.counting(monkeypatch, torustutte.flow, "_factor")
    trace = retract(mesh, WeightAssignment(values))
    assert (trace.status, trace.steps, factors[0]) == (status, steps, solves)
    assert trace.samples[-1].energy == pytest.approx(energy, rel=1e-6, abs=0)
    assert trace.samples[-1].t == pytest.approx(t, rel=1e-6, abs=0)


def _model_halvings(mesh, weights):
    """For each accepted step, the k with dt = min(DT_MAX, E / -s) / 2^k, E and s
    the energy and its slope along the velocity at the step's start."""
    trace = retract(mesh, weights)
    assert trace.status == CONVERGED
    halvings = []
    for prev, cur in zip(trace.samples, trace.samples[1:]):
        start = WeightAssignment(prev.weights)
        report = residual_structure(mesh, start)
        slope = _energy_slope(mesh, report, helpers.flow_velocity(mesh, start))
        model = min(DT_MAX, report.energy / -slope)
        # halving is exact in floating point, so t reproduces bit for bit
        ks = [k for k in range(40) if prev.t + model * 0.5**k == cur.t]
        assert ks, (prev.t, cur.t, model)
        halvings.append(ks[0])
    return trace, halvings


def test_first_trial_is_the_linear_models_zero():
    """Every step's first trial is E / -s along its velocity, capped at DT_MAX;
    a rejected trial halves it."""
    mesh, placement = gen_grid(8)
    w0 = mean_value_weights(mesh, perturb(mesh, placement, 0.05, 1)).values
    w1 = mean_value_weights(mesh, perturb(mesh, placement, 0.05, 2)).values
    trace, halvings = _model_halvings(mesh, WeightAssignment(0.5 * w0 + 0.5 * w1))
    # accepted at once: the first sample after the start sits at the model's step
    assert halvings[0] == 0
    assert trace.samples[1].t == pytest.approx(0.006428, rel=1e-3)
    # six decades of weight spread reject some first trials
    values = 10 ** np.random.default_rng(3).uniform(-3.0, 3.0, len(mesh.directed_edges))
    _, halvings = _model_halvings(mesh, WeightAssignment(values))
    assert max(halvings) > 0
