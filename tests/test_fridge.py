"""Refrigerator model: exchange coupling, working condition, COP, baselines."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinfridge import (
    DensityMatrix,
    FridgeConfig,
    SpinSpec,
    bound_temperature,
    carnot_limit,
    carnot_sweep,
    cop,
    evolve,
    exchange,
    exchange_generator,
    exchange_pauli_terms,
    exchange_sweep,
    herm_exp,
    initial_state,
    internal_energy,
    kron,
    pauli_to_operator,
    phase_boundary_value,
    run_cycles,
    system_hamiltonian,
    thermal_state,
    two_spin_swap,
    working_condition,
)

PAPER_GAPS = (1.0, 3.0, 2.0)
PAPER_TEMPS = (2.0, 2.0, 10.0)


def test_config_validation():
    with pytest.raises(ValueError, match="E2 must equal E1"):
        FridgeConfig(E1=1.0, E2=2.5, E3=2.0)
    with pytest.raises(ValueError):
        FridgeConfig(T2=-1.0)
    with pytest.raises(ValueError):
        FridgeConfig(g=0.0)


def test_self_contained_tolerance_is_relative():
    # the float sum E1 + E3 is off by 7.3e-12 here: beyond any absolute 1e-12
    big = (12345.678, 35802.467, 23456.789)
    assert abs(big[1] - (big[0] + big[2])) > 1e-12
    # hot enough baths keep every E/T below the underflow limit
    FridgeConfig(E1=big[0], E2=big[1], E3=big[2], T1=1e4, T2=1e4, T3=1e4)
    assert bound_temperature(*big, 2.0, 10.0) > 0.0
    with pytest.raises(ValueError, match="E2 must equal E1"):
        FridgeConfig(E1=1.0, E2=2.5, E3=2.0)
    with pytest.raises(ValueError):
        bound_temperature(1.0, 2.5, 2.0, 2.0, 10.0)


def test_h_exc_has_exactly_two_entries():
    h = exchange_generator(1.3).matrix
    assert h[0b010, 0b101] == pytest.approx(1.3)
    assert h[0b101, 0b010] == pytest.approx(1.3)
    mask = np.ones((8, 8), dtype=bool)
    mask[0b010, 0b101] = mask[0b101, 0b010] = False
    assert np.max(np.abs(h[mask])) == 0.0


def test_pauli_form_matches_two_entry_coupling():
    total = None
    for term in exchange_pauli_terms(0.7):
        op = pauli_to_operator(term)
        total = op if total is None else total + op
    assert np.max(np.abs(total.matrix - oracles.exchange_matrix(0.7))) <= 1e-14


def test_pauli_terms_pairwise_commute():
    ops = [pauli_to_operator(t).matrix for t in exchange_pauli_terms()]
    for a, b in itertools.combinations(ops, 2):
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


def test_self_containment_commutator():
    cfg = FridgeConfig()
    h_exc = exchange_generator(cfg.g).matrix
    h_sys = system_hamiltonian(cfg).matrix
    comm = h_exc @ h_sys - h_sys @ h_exc
    assert np.max(np.abs(comm)) <= 1e-12

    # perturbing E2 breaks the degeneracy linearly in the violation
    norms = []
    for eps in (1e-3, 1e-2):
        diag = np.diag(h_sys).copy()
        for idx in range(8):
            if (idx >> 1) & 1:
                diag[idx] += eps
        perturbed = np.diag(diag)
        comm = h_exc @ perturbed - perturbed @ h_exc
        norms.append(np.max(np.abs(comm)))
    assert norms[1] / norms[0] == pytest.approx(10.0, rel=1e-9)


def test_initial_state_populations():
    cfg = FridgeConfig()
    rho0 = initial_state(cfg)
    assert float(np.trace(rho0.matrix).real) == pytest.approx(1.0, abs=1e-14)

    p010, p101 = oracles.exchanged_level_populations(PAPER_GAPS, PAPER_TEMPS)
    # frozen from the closed-form oracle
    assert p010 == pytest.approx(0.062435008233340056, abs=1e-15)
    assert p101 == pytest.approx(0.1389516661940625, abs=1e-15)
    assert rho0.populations[0b010] == pytest.approx(p010, abs=1e-15)
    assert rho0.populations[0b101] == pytest.approx(p101, abs=1e-15)


def product_of_thermal_states(cfg):
    """initial_state as the DensityMatrix of the product of the three thermal-state
    DensityMatrix objects, four canonicalizations in all."""
    taus = [thermal_state(SpinSpec(gap, temp)) for gap, temp in zip(cfg.gaps, cfg.temps)]
    return DensityMatrix(kron(kron(taus[0], taus[1]), taus[2]))


# E/T per spin from 1e-3 to 700, log-uniform: from nearly equal populations to
# the edge of e^(-E/T) underflow, where the product's smallest entries are subnormal
@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
       st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
       st.tuples(*[st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)] * 3))
def test_initial_state_is_the_product_of_the_thermal_states(e1, e3, ratios):
    gaps = (e1, e1 + e3, e3)
    cfg = FridgeConfig(*gaps, *(gap / ratio for gap, ratio in zip(gaps, ratios)))
    assert initial_state(cfg).matrix.tobytes() == product_of_thermal_states(cfg).matrix.tobytes()


def test_equal_temperatures_degenerate_populations():
    cfg = FridgeConfig(T1=3.0, T2=3.0, T3=3.0)
    rho0 = initial_state(cfg)
    assert rho0.populations[0b010] == pytest.approx(rho0.populations[0b101], abs=1e-15)
    report = exchange(cfg)
    for heat in (report.dQ1, report.dQ2, report.dQ3):
        assert heat == pytest.approx(0.0, abs=1e-14)


def test_exchange_zero_angle_is_a_no_op():
    report = exchange(FridgeConfig(theta=0.0))
    assert report.dQ1 == pytest.approx(0.0, abs=1e-14)
    assert report.T1_after == pytest.approx(2.0, abs=1e-10)
    assert report.T3_after == pytest.approx(10.0, abs=1e-9)


def test_exchange_at_full_angle_matches_oracle():
    report = exchange(FridgeConfig())
    # complete exchange swaps the two level populations
    assert report.P010_after == pytest.approx(report.P101_before, abs=1e-13)
    assert report.P101_after == pytest.approx(report.P010_before, abs=1e-13)
    assert report.P010_before + report.P101_before == pytest.approx(
        report.P010_after + report.P101_after, abs=1e-12
    )
    # frozen from the scipy-expm + loop-partial-trace oracle
    assert report.T1_after == pytest.approx(1.1870473764537202, abs=1e-12)
    assert report.T2_after == pytest.approx(2.853138004607014, abs=1e-12)
    assert report.T3_after == pytest.approx(3.8715228198900857, abs=1e-12)
    assert report.dQ1 == pytest.approx(-0.07651665796072243, abs=1e-13)
    assert report.dQ2 == pytest.approx(0.22954997388216739, abs=1e-13)
    assert report.dQ3 == pytest.approx(-0.1530333159214451, abs=1e-13)
    # directionality: target and hot spin cool, middle spin heats up
    assert report.T1_after < 2.0
    assert report.T2_after > 2.0
    assert report.T3_after < 10.0


def test_exchange_heats_balance_and_leave_other_levels_alone(rng):
    for _ in range(20):
        t1, t2, t3 = rng.uniform(0.5, 12.0, size=3)
        theta = rng.uniform(0.0, math.pi / 2.0)
        cfg = FridgeConfig(T1=t1, T2=t2, T3=t3, theta=theta)
        report = exchange(cfg)
        assert report.dQ1 + report.dQ2 + report.dQ3 == pytest.approx(0.0, abs=1e-10)

        rho0 = initial_state(cfg)
        rho1 = evolve(rho0, herm_exp(exchange_generator(cfg.g), cfg.theta / cfg.g))
        for idx in range(8):
            if idx in (0b010, 0b101):
                continue
            assert rho1.populations[idx] == pytest.approx(
                rho0.populations[idx], abs=1e-12
            )


def test_exchange_conserves_total_internal_energy():
    for theta in (0.3, 1.0, math.pi / 2.0, 2.5):
        cfg = FridgeConfig(theta=theta)
        h_sys = system_hamiltonian(cfg)
        rho0 = initial_state(cfg)
        rho1 = evolve(rho0, herm_exp(exchange_generator(cfg.g), theta / cfg.g))
        assert internal_energy(rho1, h_sys) == pytest.approx(
            internal_energy(rho0, h_sys), abs=1e-11
        )


def test_working_condition_examples():
    assert working_condition(FridgeConfig()) is True
    assert working_condition(FridgeConfig(T1=4.0, T2=4.0, T3=4.0)) is False  # equality


def test_working_condition_equals_cooling_sign(rng):
    for _ in range(40):
        t1, t2, t3 = rng.uniform(0.5, 12.0, size=3)
        theta = rng.uniform(0.05, math.pi / 2.0)
        cfg = FridgeConfig(T1=t1, T2=t2, T3=t3, theta=theta)
        report = exchange(cfg)
        if working_condition(cfg):
            assert report.dQ1 < 0.0
        else:
            assert report.dQ1 >= 0.0


def test_near_the_boundary_every_cooling_sign_is_the_working_condition(rng):
    """T1 within 1e-15 to 1e-6 relative of T_bound: the dQ1 of exchange, of
    exchange_sweep (phase-diagram and cop) and of run_cycles' first cycle is
    negative exactly when working_condition holds, phase_boundary_value is
    positive exactly then, and the cycles move spin 1's energy in that
    direction, with no tolerance band."""
    draws = 5000
    e1, e3 = rng.uniform(0.05, 20.0, (2, draws))
    t2, t3 = rng.uniform(0.1, 50.0, (2, draws))
    offsets = rng.choice([-1.0, 1.0], draws) * 10.0 ** rng.uniform(-15.0, -6.0, draws)
    thetas = rng.uniform(0.05, math.pi - 0.05, draws)
    checked = 0
    for k in range(draws):
        e2 = e1[k] + e3[k]
        denom = e2 / t2[k] - e3[k] / t3[k]
        if denom <= 0.0:
            continue  # T_bound is negative, so no T1 > 0 lies near it
        cfg = FridgeConfig(E1=e1[k], E2=e2, E3=e3[k], T1=e1[k] / denom * (1.0 + offsets[k]),
                           T2=t2[k], T3=t3[k], theta=thetas[k])
        works = working_condition(cfg)
        cols = run_cycles(cfg, 30)
        assert (exchange(cfg).dQ1 < 0.0) == works, cfg
        assert bool(exchange_sweep(cfg, cfg.T2, cfg.T3) < 0.0) == works, cfg
        assert (cols.dQ1[1] < 0.0) == works, cfg
        assert (phase_boundary_value(cfg.T2, cfg.T3, base=cfg) > 0.0) == works, cfg
        steps = np.diff(cols.energy_q1[1:])
        assert np.all(steps <= 0.0) if works else np.all(steps >= 0.0), cfg
        checked += 1
    assert checked > draws // 2


def test_exchange_population_transfer_monotone_in_theta():
    previous = None
    for theta in np.linspace(0.0, math.pi / 2.0, 21):
        report = exchange(FridgeConfig(theta=float(theta)))
        if previous is not None:
            assert report.P101_after <= previous + 1e-12
        previous = report.P101_after


def test_bound_temperature_values():
    assert bound_temperature(1.0, 3.0, 2.0, 2.0, 10.0) == pytest.approx(
        10.0 / 13.0, abs=1e-12
    )
    assert bound_temperature(1.0, 3.0, 2.0, 6.0, 10.0) == pytest.approx(
        10.0 / 3.0, abs=1e-12
    )
    # equal bath temperatures collapse algebraically to T2
    assert bound_temperature(1.0, 3.0, 2.0, 5.0, 5.0) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError, match="no cooling regime"):
        bound_temperature(1.0, 3.0, 2.0, 10.0, 2.0)
    with pytest.raises(ValueError):
        bound_temperature(1.0, 2.5, 2.0, 2.0, 10.0)


@pytest.mark.parametrize("gaps", [(-1.0, 1.0, 2.0), (0.0, 2.0, 2.0), (1.0, math.inf, math.inf)])
def test_bound_temperature_rejects_a_gap_that_is_not_positive_and_finite(gaps):
    with pytest.raises(ValueError, match="must be positive and finite"):
        bound_temperature(*gaps, 2.0, 10.0)


def test_phase_boundary_values_and_sign_agreement():
    assert phase_boundary_value(2.0, 10.0) == pytest.approx(32.0)
    assert phase_boundary_value(6.0, 6.0) == pytest.approx(-24.0)

    for t2 in np.linspace(2.0, 6.0, 50):
        for t3 in np.linspace(2.0, 10.0, 50):
            cfg = FridgeConfig(T1=2.0, T2=float(t2), T3=float(t3))
            value = phase_boundary_value(float(t2), float(t3))
            assert working_condition(cfg) == (value > 0.0)


def test_cop_values_and_dynamic_ratio():
    assert cop(FridgeConfig()) == pytest.approx(0.5)
    assert cop(FridgeConfig(E1=2.0, E2=3.0, E3=1.0)) == pytest.approx(2.0)

    for theta in (0.2, 0.7, 1.2, math.pi / 2.0):
        report = exchange(FridgeConfig(theta=theta))
        assert report.dQ1 / report.dQ3 == pytest.approx(0.5, abs=1e-10)


def test_carnot_limit_values_and_ordering():
    assert carnot_limit(1.0, 2.0, 10.0) == pytest.approx(0.8)
    assert carnot_limit(2.0, 2.0, 10.0) == math.inf
    with pytest.raises(ValueError):
        carnot_limit(3.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        carnot_limit(1.0, 10.0, 2.0)


def carnot_point(t1, t2, t3):
    """carnot_limit's ceiling in Python floats, nan outside T1 <= T2 < T3."""
    if not t1 <= t2 < t3:
        return math.nan
    return math.inf if t1 == t2 else (t3 - t2) * t1 / (t3 * (t2 - t1))


temperatures = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(temperatures, temperatures, st.lists(temperatures, max_size=20))
def test_carnot_sweep_is_carnot_limit_point_by_point(t1, t3, t2s):
    t2s = [t1, t3, *t2s, math.nextafter(t1, 0.0), math.nextafter(t1, math.inf)]
    got = carnot_sweep(t1, np.array(t2s), t3).tolist()
    assert list(map(repr, got)) == [repr(carnot_point(t1, t2, t3)) for t2 in t2s]
    for t2, limit in zip(t2s, got):
        if t1 <= t2 < t3:
            assert repr(carnot_limit(t1, t2, t3)) == repr(limit)


def test_carnot_limit_rejects_an_infinite_temperature():
    with pytest.raises(ValueError, match="T3 must be positive and finite, got inf"):
        carnot_limit(1.0, 2.0, math.inf)


def test_phase_boundary_value_rejects_an_infinite_temperature():
    with pytest.raises(ValueError, match="T2 must be positive and finite, got inf"):
        phase_boundary_value(math.inf, 10.0)
    # the bath rules of the config, as the grid sweeps apply them
    with pytest.raises(ValueError, match=r"^spin 3: E3/T3 = 20000.0 exceeds about 708.4"):
        phase_boundary_value(2.0, 1e-4)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan, 1e-4])
@pytest.mark.parametrize("spin", [2, 3])
def test_exchange_sweep_rejects_a_bad_temperature_as_the_config_would(spin, bad):
    base = FridgeConfig()
    with pytest.raises(ValueError) as from_config:
        FridgeConfig(**{f"T{spin}": bad})
    temps = np.array([2.0, bad, 5.0, bad])  # bad at 1e-4 is the E/T underflow
    axes = (temps, base.T3) if spin == 2 else (base.T2, temps)
    with pytest.raises(ValueError) as from_sweep:
        exchange_sweep(base, *axes)
    assert str(from_sweep.value) == str(from_config.value)


def test_cop_bounded_by_carnot_when_working(rng):
    count = 0
    while count < 500:
        e1, e3 = rng.uniform(0.2, 4.0, size=2)
        t1 = rng.uniform(0.2, 8.0)
        t2 = t1 + rng.uniform(1e-3, 6.0)
        t3 = t2 + rng.uniform(1e-3, 8.0)
        cfg = FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=t1, T2=t2, T3=t3)
        if not working_condition(cfg):
            continue
        count += 1
        assert cop(cfg) <= carnot_limit(t1, t2, t3) + 1e-12


def test_two_spin_swap_matches_formula():
    t_after, work = two_spin_swap(1.0, 3.0, 4.0)
    assert t_after == pytest.approx(4.0 / 3.0, abs=1e-10)
    # frozen from the population-difference oracle: (E2-E1)*(p1-p2)
    assert work == pytest.approx(0.2340043965791898, abs=1e-13)
    assert work > 0.0

    t_after, _ = two_spin_swap(1.0, 2.0, 2.0)
    assert t_after == pytest.approx(1.0, abs=1e-10)

    # near-degenerate gaps: the swap barely changes the temperature
    t_after, work = two_spin_swap(1.999, 2.0, 5.0)
    assert t_after == pytest.approx(5.0 * 1.999 / 2.0, abs=1e-10)
    assert abs(t_after - 5.0) / 5.0 < 1e-3
    assert work > 0.0


def test_two_spin_swap_random_samples(rng):
    for _ in range(100):
        e1 = rng.uniform(0.3, 3.0)
        e2 = e1 + rng.uniform(0.1, 3.0)
        t0 = rng.uniform(0.5, 20.0)
        t_after, work = two_spin_swap(e1, e2, t0)
        assert t_after == pytest.approx(t0 * e1 / e2, abs=1e-10)
        assert work > 0.0


def test_two_spin_swap_validation():
    with pytest.raises(ValueError):
        two_spin_swap(2.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        two_spin_swap(1.0, 2.0, -1.0)
    # SpinSpec's temperature rule is the only one
    for T0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            two_spin_swap(1.0, 2.0, T0)
