"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s``
to see them live). All pipeline data is computed once per run by
:func:`run_all`, carried in a module fixture, and serialized to
canonical JSON; the final test reruns the entire pipeline and checks
the two byte streams are identical.
"""

import math
import time

import numpy as np
import pytest

import helpers
from torustutte import (
    CONVERGED,
    WeightAssignment,
    balance_energy,
    flow_constants,
    gen_grid,
    gen_k7,
    generic_direction_form,
    index_theorem_check,
    mean_value_weights,
    morph,
    perturb,
    residual_structure,
    retract,
    solve_balance,
    tutte_map,
    verify_embedding,
)
from torustutte.serialize import dump_json, placement_to_json

GRID3_GAP = 0.23570226039551584  # 1 / (3 sqrt 2)
N3 = 9  # vertices of the 3x3 grid


def run_all():
    """Run every acceptance pipeline once; returns (artifacts, walls).

    ``artifacts`` is pure JSON-compatible data (the determinism
    criterion serializes it); ``walls`` holds wall-clock seconds per
    criterion and stays out of the canonical stream.
    """
    art = {}
    walls = {}

    # 1. mean value weights -> tutte map round trip on the 6x6 grid
    t0 = time.perf_counter()
    mesh6, p6 = gen_grid(6)
    sups = []
    placements = []
    for i in range(50):
        bumpy = perturb(mesh6, p6, 0.3 / 6, seed=1000 + i)
        back = tutte_map(mesh6, mean_value_weights(mesh6, bumpy))
        sups.append(float(np.abs(back.coords - bumpy.coords).max()))
        placements.append(placement_to_json(back))
    walls[1] = time.perf_counter() - t0
    art["c1_round_trip"] = {"sup_errors": sups, "placements": placements}

    # 2 + 3. random symmetric weights on the 4x4 grid: always embeddings,
    # always admissible
    t0 = time.perf_counter()
    mesh4, _ = gen_grid(4)
    rng = np.random.default_rng(20001)
    min_areas = []
    total_areas = []
    energies = []
    sym_placements = []
    for _ in range(100):
        values = helpers.random_symmetric_weights(mesh4, rng, 0.1, 10.0)
        placement, report = solve_balance(mesh4, WeightAssignment(values))
        energies.append(report.energy)
        cert = verify_embedding(mesh4, placement)
        min_areas.append(cert.min_area)
        total_areas.append(cert.total_area)
        sym_placements.append(placement_to_json(placement))
    walls[2] = walls[3] = time.perf_counter() - t0
    art["c2_embeddings"] = {
        "min_areas": min_areas,
        "total_areas": total_areas,
        "placements": sym_placements,
    }
    art["c3_energies"] = energies

    # 4 + 5. residual structure of non-admissible weights on the 3x3 grid
    t0 = time.perf_counter()
    mesh3, _ = gen_grid(3)
    rng = np.random.default_rng(40001)
    residual_rows = []
    for _ in range(100):
        values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        while balance_energy(mesh3, WeightAssignment(values)) <= 1e-10:
            values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        report = residual_structure(mesh3, WeightAssignment(values))
        norms = np.linalg.norm(report.residuals, axis=1)
        residual_rows.append(
            {
                "energy": report.energy,
                "singular_ratio": helpers.oracle_singular_ratio(report.residuals),
                "min_gram": float((report.residuals @ report.residuals.T).min()),
                "row_ratio": float(norms.max() / norms.min()),
                "ratio_cap": float(report.max_weight_ratio ** (N3 - 1)),
                "min_projection": float(report.projections.min()),
            }
        )
    walls[4] = walls[5] = time.perf_counter() - t0
    art["c4_residuals"] = residual_rows

    # 6 + 7. retraction flow on 50 random non-admissible starts
    t0 = time.perf_counter()
    rng = np.random.default_rng(60001)
    flow_rows = []
    traces = []
    for _ in range(50):
        values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        while balance_energy(mesh3, WeightAssignment(values)) <= 1e-10:
            values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        trace = retract(mesh3, WeightAssignment(values))
        traces.append(trace)
        flow_rows.append(
            {
                "status": trace.status,
                "steps": trace.steps,
                "final_t": trace.samples[-1].t,
                "final_energy": trace.samples[-1].energy,
                "final_weights": [float(w) for w in trace.final_weights.values],
            }
        )
    walls[6] = time.perf_counter() - t0

    t0 = time.perf_counter()
    excesses = []
    for trace in traces:
        for sample in trace.samples:
            if sample.energy <= 1e-10:
                continue
            weights = WeightAssignment(sample.weights)
            report = residual_structure(mesh3, weights)
            theta = helpers.flow_velocity(mesh3, weights)
            constants = flow_constants(mesh3, weights)
            bound = -constants.loop_gap * constants.min_weight / (
                2.0 * constants.asym_bound
            )
            excesses.append(float(np.dot(report.projections, theta) - bound))
    walls[7] = time.perf_counter() - t0
    art["c6_flow"] = flow_rows
    art["c7_max_excess"] = max(excesses)
    art["c7_states_checked"] = len(excesses)

    # 8. index theorem over 20 embedded fixtures x 5 direction ladders
    t0 = time.perf_counter()
    fixtures = [gen_grid(3), gen_grid(4), gen_grid(5), gen_k7()]
    for m in (3, 4, 5, 6):
        mesh_m, p_m = gen_grid(m)
        for seed in (1, 2, 3, 4):
            fixtures.append((mesh_m, perturb(mesh_m, p_m, 0.3 / m, seed=seed)))
    index_rows = []
    for mesh, placement in fixtures:
        for start in (0.1, 0.7, 1.3, 1.9, 2.5):
            form, angle = generic_direction_form(mesh, placement, start_angle=start)
            report = index_theorem_check(mesh, form)
            index_rows.append(
                {
                    "angle": angle,
                    "nonvanishing": report.nonvanishing,
                    "all_zero": bool(
                        all(ix == 0 for ix in report.vertex_indices)
                        and all(ix == 0 for ix in report.face_indices)
                    ),
                    "total": report.total,
                }
            )
    walls[8] = time.perf_counter() - t0
    art["c8_indices"] = index_rows

    # 9. nine-frame morph between two perturbed 4x4 embeddings
    t0 = time.perf_counter()
    start = perturb(mesh4, gen_grid(4)[1], 0.3 / 4, seed=11)
    end = perturb(mesh4, gen_grid(4)[1], 0.3 / 4, seed=22)
    frames = morph(mesh4, start, end, steps=9)
    walls[9] = time.perf_counter() - t0
    art["c9_morph"] = {
        "start_error": float(np.abs(frames[0].coords - start.coords).max()),
        "end_error": float(np.abs(frames[-1].coords - end.coords).max()),
        "frame_embedding": [
            bool(verify_embedding(mesh4, f).is_embedding) for f in frames
        ],
        "frames": [placement_to_json(f) for f in frames],
    }

    return art, walls


@pytest.fixture(scope="module")
def pipeline():
    return run_all()


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_round_trip(pipeline):
    art, walls = pipeline
    sups = art["c1_round_trip"]["sup_errors"]
    ok = len(sups) == 50 and max(sups) <= 1e-8 and walls[1] < 30.0
    report(1, ok, (
        f"50 mvc/tutte round trips on the 6x6 grid, max sup error "
        f"{max(sups):.3e} (budget 1e-08), {walls[1]:.2f}s (budget 30s)"
    ))


def test_acceptance_2_embeddings(pipeline):
    art, walls = pipeline
    data = art["c2_embeddings"]
    min_area = min(data["min_areas"])
    worst_total = max(abs(t - 1.0) for t in data["total_areas"])
    ok = (
        len(data["min_areas"]) == 100
        and min_area > 0.0
        and worst_total <= 1e-9
        and walls[2] < 30.0
    )
    report(2, ok, (
        f"100 random symmetric weight systems embed: min face area "
        f"{min_area:.3e} > 0, max |total-1| {worst_total:.3e} <= 1e-09"
    ))


def test_acceptance_3_symmetric_energy(pipeline):
    art, _ = pipeline
    energies = art["c3_energies"]
    ok = len(energies) == 100 and max(energies) <= 1e-18
    report(3, ok, (
        f"same 100 symmetric systems: max balance energy "
        f"{max(energies):.3e} <= 1e-18"
    ))


def test_acceptance_4_residual_structure(pipeline):
    art, _ = pipeline
    rows = art["c4_residuals"]
    worst_sr = max(r["singular_ratio"] for r in rows)
    min_gram = min(r["min_gram"] for r in rows)
    ratio_ok = all(r["row_ratio"] <= r["ratio_cap"] for r in rows)
    ok = (
        len(rows) == 100
        and worst_sr <= 1e-9
        and min_gram > 0.0
        and ratio_ok
    )
    report(4, ok, (
        f"100 non-admissible systems: rank-one residuals (max sigma2/sigma1 "
        f"{worst_sr:.3e} <= 1e-09), positive row grams (min {min_gram:.3e}), "
        f"row ratios within C^(n-1)"
    ))


def test_acceptance_5_loop_bound(pipeline):
    art, _ = pipeline
    rows = art["c4_residuals"]
    worst = max(r["min_projection"] for r in rows)
    ok = worst <= -GRID3_GAP
    report(5, ok, (
        f"same 100 systems: every min projection <= -1/(3 sqrt 2); "
        f"worst {worst:.6f} vs bound {-GRID3_GAP:.6f}, zero violations"
    ))


def test_acceptance_6_flow_contract(pipeline):
    art, walls = pipeline
    rows = art["c6_flow"]
    all_converged = all(r["status"] == CONVERGED for r in rows)
    worst_energy = max(r["final_energy"] for r in rows)
    ok = (
        len(rows) == 50
        and all_converged
        and worst_energy <= 1e-10
        and walls[6] < 120.0
    )
    report(6, ok, (
        f"50 retractions converged (worst final energy {worst_energy:.3e} "
        f"<= 1e-10) in {walls[6]:.2f}s (budget 120s); trajectory "
        f"monotonicity asserted per step below"
    ))
    # the per-trajectory invariants are cheap to re-verify from the rows'
    # source traces; rebuild two runs here to keep this test self-contained
    mesh3, _ = gen_grid(3)
    rng = np.random.default_rng(60001)
    for _ in range(3):
        values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        while balance_energy(mesh3, WeightAssignment(values)) <= 1e-10:
            values = helpers.random_directed_weights(mesh3, rng, 0.5, 2.0)
        trace = retract(mesh3, WeightAssignment(values))
        samples = trace.samples
        energies = [s.energy for s in samples]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        lows = [s.min_weight for s in samples]
        assert all(b >= a - 1e-15 for a, b in zip(lows, lows[1:]))
        asyms = [s.asym_bound for s in samples]
        assert all(b <= a + 1e-12 for a, b in zip(asyms, asyms[1:]))
        start = samples[0].weights
        for prev, cur in zip(samples, samples[1:]):
            dt = cur.t - prev.t
            delta = cur.weights - prev.weights
            assert delta.min() >= 0.0
            assert np.all(delta <= prev.weights * dt * (1.0 + 1e-9))
            assert np.all(cur.weights <= start * np.exp(cur.t) * (1.0 + 1e-12))


def test_acceptance_7_dissipation(pipeline):
    art, _ = pipeline
    excess = art["c7_max_excess"]
    checked = art["c7_states_checked"]
    ok = checked > 0 and excess <= 1e-12
    report(7, ok, (
        f"dissipation bound at {checked} accepted flow states: "
        f"max excess over -gap*L/(2M) is {excess:.3e} <= 1e-12"
    ))


def test_acceptance_8_index_theorem(pipeline):
    art, _ = pipeline
    rows = art["c8_indices"]
    ok = (
        len(rows) == 100
        and all(r["nonvanishing"] for r in rows)
        and all(r["all_zero"] for r in rows)
        and all(r["total"] == 0 for r in rows)
    )
    report(8, ok, (
        f"20 embedded fixtures x 5 generic directions: all forms "
        f"nonvanishing, every index 0, every total exactly 0"
    ))


def test_acceptance_9_morph(pipeline):
    art, walls = pipeline
    data = art["c9_morph"]
    ok = (
        data["start_error"] <= 1e-6
        and data["end_error"] <= 1e-6
        and len(data["frame_embedding"]) == 9
        and all(data["frame_embedding"])
        and walls[9] < 60.0
    )
    report(9, ok, (
        f"9-frame morph: endpoint errors {data['start_error']:.3e} / "
        f"{data['end_error']:.3e} <= 1e-06, all frames embed, "
        f"{walls[9]:.2f}s (budget 60s)"
    ))


def test_acceptance_10_determinism(pipeline):
    art, _ = pipeline
    first = dump_json(art)
    second = dump_json(run_all()[0])
    ok = first == second
    report(10, ok, (
        f"full rerun with identical seeds produced byte-identical "
        f"canonical JSON ({len(first.encode())} bytes)"
    ))
