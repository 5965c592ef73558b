"""Multi-cycle cooling trajectories and the bath-temperature scan."""

import math
import warnings

import numpy as np
import pytest

import oracles
from spinfridge import (
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
from spinfridge.cycles import MAX_CYCLES

T_BOUND = 10.0 / 13.0


def test_run_cycles_shape_and_initial_record():
    cols = run_cycles(FridgeConfig(theta=math.pi / 2.0), 5)
    assert len(cols.n) == 6
    assert cols.n.tolist() == list(range(6))
    assert cols.T1[0] == pytest.approx(2.0, abs=1e-10)
    assert cols.dQ1[0] == 0.0


def test_run_cycles_requires_at_least_one_cycle():
    with pytest.raises(ValueError):
        run_cycles(FridgeConfig(theta=math.pi / 2.0), 0)


def test_run_cycles_caps_the_cycle_count():
    with pytest.raises(ValueError, match=f"cycles must lie in \\[1, {MAX_CYCLES}\\]"):
        run_cycles(FridgeConfig(), MAX_CYCLES + 1)


@pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(3.0)], ids=["2.5", "3.0", "True", "np3.0"])
def test_run_cycles_requires_an_integer_cycle_count(count):
    with pytest.raises(ValueError, match="cycles must be an integer"):
        run_cycles(FridgeConfig(), count)


@pytest.mark.parametrize("thetas", [[0.1, math.nan], [math.inf], [0.5, -math.inf, 0.2]])
def test_run_cycles_requires_finite_angles(thetas):
    with pytest.raises(ValueError, match="theta must be finite"):
        run_cycles(FridgeConfig(), 5, thetas)


def test_run_cycles_reads_the_angle_from_the_config():
    cfg = FridgeConfig(theta=0.1)
    p1, p2, p3 = (oracles.thermal_population(E, T) for E, T in zip(cfg.gaps, cfg.temps))
    cols = run_cycles(cfg, 5)
    for dq1, energy in zip(cols.dQ1[1:].tolist(), cols.energy_q1[1:].tolist()):
        delta = math.sin(0.1) ** 2 * ((1.0 - p1) * p2 * (1.0 - p3) - p1 * (1.0 - p2) * p3)
        p1 += delta
        assert dq1 == pytest.approx(cfg.E1 * delta, rel=1e-12)
        assert energy == pytest.approx(cfg.E1 * p1, rel=1e-12)
    # the first cycle at pi/2 moves 1/sin^2(0.1), about 100 times, more heat
    full = run_cycles(FridgeConfig(theta=math.pi / 2.0), 5)
    assert full.dQ1[1] == pytest.approx(cols.dQ1[1] / math.sin(0.1) ** 2, rel=1e-12)


@pytest.mark.parametrize("cfg", [FridgeConfig(), FridgeConfig(E1=2.0, E2=3.0, E3=1.0,
                                                              T1=0.5, T2=3.0, T3=4.0)],
                         ids=["default", "spin1-warms"])
@pytest.mark.parametrize("theta", [0.0, -0.0, 1e-300], ids=["0", "-0", "1e-300"])
def test_run_cycles_keeps_spin1_where_sin2_theta_d_is_zero(cfg, theta):
    # sin^2(theta) D is exactly 0, so no cycle moves a population: every row is row 0
    cols = run_cycles(cfg, 5, [theta])
    for column in (cols.T1, cols.entropy_q1, cols.energy_q1):
        assert column.tolist() == [column[0]] * 6


def test_bound_temperature_is_a_fixed_point():
    cfg = FridgeConfig(T1=T_BOUND, theta=math.pi / 2.0)
    for t1 in run_cycles(cfg, 8).T1.tolist():
        assert t1 == pytest.approx(T_BOUND, abs=1e-9)


def test_paper_configuration_converges_quickly():
    cols = run_cycles(FridgeConfig(theta=math.pi / 2.0), 20)
    assert abs(cols.T1[-1] - T_BOUND) < 1e-3
    hits = cols.n[np.abs(cols.T1 - T_BOUND) < 1e-3].tolist()
    assert hits and hits[0] <= 20


def test_smaller_angle_converges_more_slowly_to_the_same_limit():
    fast = run_cycles(FridgeConfig(theta=math.pi / 2.0), 300)
    slow = run_cycles(FridgeConfig(theta=math.pi / 8.0), 300)
    assert fast.T1[-1] == pytest.approx(slow.T1[-1], abs=1e-6)
    assert fast.T1[-1] == pytest.approx(T_BOUND, abs=1e-6)

    def first_hit(cols, tol=1e-3):
        for n, t1 in zip(cols.n.tolist(), cols.T1.tolist()):
            if abs(t1 - T_BOUND) < tol:
                return n
        return math.inf

    assert first_hit(fast) < first_hit(slow)


def test_temperature_is_monotone_non_increasing():
    for theta in (math.pi / 8.0, math.pi / 3.0, math.pi / 2.0):
        cols = run_cycles(FridgeConfig(theta=theta), 60)
        temps = cols.T1.tolist()
        assert all(b <= a + 1e-12 for a, b in zip(temps[:-1], temps[1:]))
        # entropy of the target spin also falls while cooling
        assert cols.entropy_q1[-1] < cols.entropy_q1[0]
        # per-cycle heat matches the energy deltas
        energies = cols.energy_q1.tolist()
        for before, after, dq1 in zip(energies[:-1], energies[1:], cols.dQ1[1:].tolist()):
            assert dq1 == pytest.approx(after - before, abs=1e-12)


def test_reset_preserves_the_reduced_target_state():
    cfg = FridgeConfig()
    rho = evolve(initial_state(cfg), herm_exp(exchange_generator(), cfg.theta))
    reduced = partial_trace(rho, (0,))
    rebuilt = DensityMatrix(
        kron(
            kron(reduced, thermal_state(SpinSpec(cfg.E2, cfg.T2))),
            thermal_state(SpinSpec(cfg.E3, cfg.T3)),
        )
    )
    assert np.max(np.abs(partial_trace(rebuilt, (0,)).matrix - reduced.matrix)) <= 1e-12


def test_detect_convergence_paths():
    constant = [1.5] * 8
    converged, limit = detect_convergence(constant, 1e-10)
    assert converged and limit == 1.5

    decreasing = [5.0 - 0.5 * n for n in range(8)]
    converged, _ = detect_convergence(decreasing, 1e-6)
    assert not converged

    with pytest.raises(ValueError):
        detect_convergence(constant[:1], 1e-6)


def test_detect_convergence_on_the_reference_run():
    cols = run_cycles(FridgeConfig(theta=math.pi / 2.0), 80)
    converged, limit = detect_convergence(cols.T1, 1e-8)
    assert converged
    assert limit == pytest.approx(T_BOUND, abs=1e-6)
    # analytic check: the limit solves the working condition at equality
    assert limit == pytest.approx(bound_temperature(1.0, 3.0, 2.0, 2.0, 10.0), abs=1e-6)


def test_scan_phase_diagram_shape_and_signs():
    t2s, t3s, dq1 = scan_phase_diagram((2.0, 6.0), (2.0, 10.0), 9)  # T1 = 2, theta = pi/2
    assert len(dq1) == 81
    # deterministic ordering: T2 outer, T3 inner
    assert t2s[0] == pytest.approx(2.0)
    assert t3s[0] == pytest.approx(2.0)
    assert t3s[1] > t3s[0]

    for t2, t3, heat in zip(t2s.tolist(), t3s.tolist(), dq1.tolist()):
        boundary = phase_boundary_value(t2, t3)
        if abs(boundary) > 0.5:
            assert heat * boundary < 0.0  # dQ1 < 0 exactly when cooling works


def test_scan_phase_boundary_curve_carries_no_heat():
    for t3 in np.linspace(2.0, 10.0, 17):
        t2 = 6.0 * t3 / (4.0 + t3)
        report = exchange(FridgeConfig(T1=2.0, T2=float(t2), T3=float(t3)))
        assert abs(report.dQ1) <= 1e-10


def test_scan_phase_diagram_validation():
    with pytest.raises(ValueError):
        scan_phase_diagram((2.0, 6.0), (2.0, 10.0), 1)
    with pytest.raises(ValueError):
        scan_phase_diagram((-1.0, 6.0), (2.0, 10.0), 5)
    with pytest.raises(ValueError, match="at most 1000"):
        scan_phase_diagram((2.0, 6.0), (2.0, 10.0), 1001)
    # a step count is never truncated, and the grid is square: a pair is no count
    for grid in (2.9, 3.0, True, (3, 3)):
        with pytest.raises(ValueError, match="grid steps must be an integer"):
            scan_phase_diagram((2.0, 6.0), (2.0, 10.0), grid)
    # an overflowing axis raises before it is formed, and a numpy bound does not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="T3 axis .* got inf"):
            scan_phase_diagram((2.0, 6.0), (np.float64(2.0), np.float64(1e308)), 5,
                               base=FridgeConfig(theta=1.0))
