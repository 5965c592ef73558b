"""Multi-cycle cooling trajectories and the bath-temperature scan."""

import math
import warnings

import numpy as np
import pytest

import oracles
from spinfridge import (
    CycleRecord,
    DensityMatrix,
    FridgeConfig,
    SpinSpec,
    bound_temperature,
    detect_convergence,
    evolve,
    exchange,
    exchange_generator,
    herm_exp,
    initial_state,
    kron,
    partial_trace,
    phase_boundary_value,
    run_cycles,
    scan_phase_diagram,
    thermal_state,
)

T_BOUND = 10.0 / 13.0


def test_run_cycles_shape_and_initial_record():
    records = run_cycles(FridgeConfig(theta=math.pi / 2.0), 5)
    assert len(records) == 6
    assert [r.n for r in records] == list(range(6))
    assert records[0].T1 == pytest.approx(2.0, abs=1e-10)
    assert records[0].dQ1 == 0.0


def test_run_cycles_requires_at_least_one_cycle():
    with pytest.raises(ValueError):
        run_cycles(FridgeConfig(theta=math.pi / 2.0), 0)


def test_run_cycles_reads_the_angle_from_the_config():
    cfg = FridgeConfig(theta=0.1)
    p1, p2, p3 = (oracles.thermal_population(E, T) for E, T in zip(cfg.gaps, cfg.temps))
    records = run_cycles(cfg, 5)
    for record in records[1:]:
        delta = math.sin(0.1) ** 2 * ((1.0 - p1) * p2 * (1.0 - p3) - p1 * (1.0 - p2) * p3)
        p1 += delta
        assert record.dQ1 == pytest.approx(cfg.E1 * delta, rel=1e-12)
        assert record.energy_q1 == pytest.approx(cfg.E1 * p1, rel=1e-12)
    # the first cycle at pi/2 moves 1/sin^2(0.1), about 100 times, more heat
    full = run_cycles(FridgeConfig(theta=math.pi / 2.0), 5)
    assert full[1].dQ1 == pytest.approx(records[1].dQ1 / math.sin(0.1) ** 2, rel=1e-12)


def test_bound_temperature_is_a_fixed_point():
    cfg = FridgeConfig(T1=T_BOUND, theta=math.pi / 2.0)
    records = run_cycles(cfg, 8)
    for record in records:
        assert record.T1 == pytest.approx(T_BOUND, abs=1e-9)


def test_paper_configuration_converges_quickly():
    records = run_cycles(FridgeConfig(theta=math.pi / 2.0), 20)
    assert abs(records[-1].T1 - T_BOUND) < 1e-3
    hits = [r.n for r in records if abs(r.T1 - T_BOUND) < 1e-3]
    assert hits and hits[0] <= 20


def test_smaller_angle_converges_more_slowly_to_the_same_limit():
    fast = run_cycles(FridgeConfig(theta=math.pi / 2.0), 300)
    slow = run_cycles(FridgeConfig(theta=math.pi / 8.0), 300)
    assert fast[-1].T1 == pytest.approx(slow[-1].T1, abs=1e-6)
    assert fast[-1].T1 == pytest.approx(T_BOUND, abs=1e-6)

    def first_hit(records, tol=1e-3):
        for record in records:
            if abs(record.T1 - T_BOUND) < tol:
                return record.n
        return math.inf

    assert first_hit(fast) < first_hit(slow)


def test_temperature_is_monotone_non_increasing():
    for theta in (math.pi / 8.0, math.pi / 3.0, math.pi / 2.0):
        records = run_cycles(FridgeConfig(theta=theta), 60)
        temps = [r.T1 for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(temps[:-1], temps[1:]))
        # entropy of the target spin also falls while cooling
        assert records[-1].entropy_q1 < records[0].entropy_q1
        # per-cycle heat matches the energy deltas
        for before, after in zip(records[:-1], records[1:]):
            assert after.dQ1 == pytest.approx(
                after.energy_q1 - before.energy_q1, abs=1e-12
            )


def test_reset_preserves_the_reduced_target_state():
    cfg = FridgeConfig()
    rho = evolve(initial_state(cfg), herm_exp(exchange_generator(cfg.g), cfg.theta / cfg.g))
    reduced = partial_trace(rho, (0,))
    rebuilt = DensityMatrix(
        kron(
            kron(reduced.op, thermal_state(SpinSpec(cfg.E2, cfg.T2)).op),
            thermal_state(SpinSpec(cfg.E3, cfg.T3)).op,
        )
    )
    assert np.max(np.abs(partial_trace(rebuilt, (0,)).matrix - reduced.matrix)) <= 1e-12


def test_detect_convergence_paths():
    constant = [CycleRecord(n, 1.5, 0.1, 0.2, 0.0) for n in range(8)]
    converged, limit = detect_convergence(constant, 1e-10)
    assert converged and limit == 1.5

    decreasing = [CycleRecord(n, 5.0 - 0.5 * n, 0.1, 0.2, 0.0) for n in range(8)]
    converged, _ = detect_convergence(decreasing, 1e-6)
    assert not converged

    with pytest.raises(ValueError):
        detect_convergence(constant[:1], 1e-6)


def test_detect_convergence_on_the_reference_run():
    records = run_cycles(FridgeConfig(theta=math.pi / 2.0), 80)
    converged, limit = detect_convergence(records, 1e-8)
    assert converged
    assert limit == pytest.approx(T_BOUND, abs=1e-6)
    # analytic check: the limit solves the working condition at equality
    assert limit == pytest.approx(bound_temperature(1.0, 3.0, 2.0, 2.0, 10.0), abs=1e-6)


def test_scan_phase_diagram_shape_and_signs():
    points = scan_phase_diagram((2.0, 6.0), (2.0, 10.0), 9, 2.0, math.pi / 2.0)
    assert len(points) == 81
    # deterministic ordering: T2 outer, T3 inner
    assert points[0].T2 == pytest.approx(2.0)
    assert points[0].T3 == pytest.approx(2.0)
    assert points[1].T3 > points[0].T3

    for point in points:
        boundary = phase_boundary_value(point.T2, point.T3)
        if abs(boundary) > 0.5:
            assert point.dQ1 * boundary < 0.0  # dQ1 < 0 exactly when cooling works


def test_scan_phase_boundary_curve_carries_no_heat():
    for t3 in np.linspace(2.0, 10.0, 17):
        t2 = 6.0 * t3 / (4.0 + t3)
        report = exchange(FridgeConfig(T1=2.0, T2=float(t2), T3=float(t3)))
        assert abs(report.dQ1) <= 1e-10


def test_scan_phase_diagram_validation():
    with pytest.raises(ValueError):
        scan_phase_diagram((2.0, 6.0), (2.0, 10.0), 1, 2.0, math.pi / 2.0)
    with pytest.raises(ValueError):
        scan_phase_diagram((-1.0, 6.0), (2.0, 10.0), 5, 2.0, math.pi / 2.0)
    with pytest.raises(ValueError, match="at most 1000"):
        scan_phase_diagram((2.0, 6.0), (2.0, 10.0), (2, 1001), 2.0, math.pi / 2.0)
    # an overflowing axis raises before it is formed, and a numpy bound does not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="T3 axis .* got inf"):
            scan_phase_diagram((2.0, 6.0), (np.float64(2.0), np.float64(1e308)), 5, 2.0, 1.0)
