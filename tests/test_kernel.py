"""The closed-form population kernel against the dense density-matrix path.

The dense path (initial_state -> herm_exp -> evolve -> partial_trace) is the
oracle for populations and heats.  Temperatures of nearly empty levels are
ill-conditioned in the dense path's absolute rounding, so they are checked
against the closed-form oracle built on oracles.exchanged_level_populations.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import working_configs
from spinfridge import (
    CycleColumns,
    DensityMatrix,
    ExchangeReport,
    FridgeConfig,
    SpinSpec,
    binary_entropy,
    boltzmann_margin,
    carnot_limit,
    detect_convergence,
    effective_temperature,
    evolve,
    exchange,
    exchange_flow,
    exchange_generator,
    herm_exp,
    initial_state,
    internal_energy,
    kron,
    partial_trace,
    phase_boundary_value,
    run_cycles,
    scan_phase_diagram,
    spin_hamiltonian,
    spin_temperature,
    thermal_state,
    von_neumann_entropy,
    working_condition,
)

POP_TOL = 1e-12
TEMP_REL_TOL = 1e-9
TEMPERATURE_FIELDS = ("T1_after", "T2_after", "T3_after")


def dense_exchange(cfg: FridgeConfig) -> ExchangeReport:
    """One exchange through 8x8 matrices: evolve, then trace out per spin."""
    rho0 = initial_state(cfg)
    rho1 = evolve(rho0, herm_exp(exchange_generator(cfg.g), cfg.theta / cfg.g))
    heats, temps = [], []
    for qubit, gap in enumerate(cfg.gaps):
        h_i = spin_hamiltonian(gap)
        before = partial_trace(rho0, (qubit,))
        after = partial_trace(rho1, (qubit,))
        heats.append(internal_energy(after, h_i) - internal_energy(before, h_i))
        temps.append(effective_temperature(after, gap))
    pops0, pops1 = rho0.populations, rho1.populations
    return ExchangeReport(
        float(pops0[0b010]), float(pops0[0b101]), float(pops1[0b010]), float(pops1[0b101]),
        *heats, *temps,
    )


def dense_cycles(cfg: FridgeConfig, n_cycles: int, theta: float) -> CycleColumns:
    """Evolve-reset loop through 8x8 matrices: keep spin 1, refresh spins 2 and 3."""
    u = herm_exp(exchange_generator(cfg.g), theta / cfg.g)
    baths = kron(thermal_state(SpinSpec(cfg.E2, cfg.T2)),
                 thermal_state(SpinSpec(cfg.E3, cfg.T3)))
    h1 = spin_hamiltonian(cfg.E1)
    rho = initial_state(cfg)
    rows = []
    energy = None
    for n in range(n_cycles + 1):
        if n:
            rho = evolve(rho, u)
        reduced = partial_trace(rho, (0,))
        energy_after = internal_energy(reduced, h1)
        rows.append((
            n,
            effective_temperature(reduced, cfg.E1),
            von_neumann_entropy(reduced),
            energy_after,
            0.0 if n == 0 else energy_after - energy,
        ))
        energy = energy_after
        rho = DensityMatrix(kron(reduced, baths))
    return CycleColumns(*map(np.array, zip(*rows)))


def closed_form_temperatures(cfg: FridgeConfig) -> list[float]:
    """Temperatures after one exchange from the closed-form level populations."""
    p010, p101 = oracles.exchanged_level_populations(cfg.gaps, cfg.temps)
    delta = math.sin(cfg.theta) ** 2 * (p010 - p101)
    return [
        oracles.effective_temperature(gap, oracles.thermal_population(gap, temp) + moved)
        for gap, temp, moved in zip(cfg.gaps, cfg.temps, (delta, -delta, delta))
    ]


def close_temperature(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= TEMP_REL_TOL * abs(expected)


# E/T from 1e-3 to 700, log-uniform: from nearly equal populations to the
# edge of e^(-E/T) underflow
ratios = st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)
gap_values = st.floats(0.05, 20.0)
angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def configs(draw):
    e1, e3 = draw(gap_values), draw(gap_values)
    e2 = e1 + e3
    return FridgeConfig(
        E1=e1, E2=e2, E3=e3,
        T1=e1 / draw(ratios), T2=e2 / draw(ratios), T3=e3 / draw(ratios),
        g=draw(st.floats(0.1, 10.0)), theta=draw(angles),
    )


@settings(max_examples=300, deadline=None)
@given(configs())
def test_exchange_matches_the_dense_path(cfg):
    kernel, dense = exchange(cfg), dense_exchange(cfg)
    expected_temps = closed_form_temperatures(cfg)
    for name in ExchangeReport._fields:
        got, want = getattr(kernel, name), getattr(dense, name)
        if name in TEMPERATURE_FIELDS:
            # same marker (sign, zero, infinity) as the dense path
            assert math.copysign(1.0, got) == math.copysign(1.0, want), name
            assert math.isinf(got) == math.isinf(want), name
            expected = expected_temps[TEMPERATURE_FIELDS.index(name)]
            assert close_temperature(got, expected), (name, got, expected)
        else:
            assert abs(got - want) <= POP_TOL, (name, got, want)


@settings(max_examples=300, deadline=None)
@given(configs())
def test_exchange_invariants(cfg):
    report = exchange(cfg)
    p = [oracles.thermal_population(gap, temp) for gap, temp in zip(cfg.gaps, cfg.temps)]
    # the eight level populations after the exchange: only |010> and |101> move
    levels = []
    for index in range(8):
        bits = ((index >> 2) & 1, (index >> 1) & 1, index & 1)
        levels.append(math.prod(q if bit else 1.0 - q for bit, q in zip(bits, p)))
    levels[0b010], levels[0b101] = report.P010_after, report.P101_after
    assert abs(sum(levels) - 1.0) <= POP_TOL
    assert min(levels) >= 0.0
    # energy is conserved: E2 = E1 + E3
    assert abs(report.dQ1 + report.dQ2 + report.dQ3) <= POP_TOL * max(cfg.gaps)


@settings(max_examples=300, deadline=None)
@given(working_configs())
def test_cop_never_exceeds_carnot(cfg):
    report = exchange(cfg)
    if working_condition(cfg):
        assert report.dQ1 < 0.0 and report.dQ3 < 0.0
        assert report.dQ1 / report.dQ3 <= carnot_limit(*cfg.temps) + 1e-12
    else:
        assert report.dQ1 >= -POP_TOL


def assert_default_boundary_value(t2, t3):
    """At the default gaps and T1 = 2 the value is the closed form of the
    reference point where its sign is the working condition's, and T1*T2*T3*x
    where rounding moves the closed form across zero; both bit for bit."""
    closed = 6.0 * t3 - 4.0 * t2 - t2 * t3
    x = float(boltzmann_margin((1.0, 3.0, 2.0), (2.0, t2, t3))[1])
    want = closed if (closed > 0.0) == (x > 0.0) else 2.0 * t2 * t3 * x
    assert phase_boundary_value(t2, t3) == want
    return want == closed


@settings(max_examples=300, deadline=None)
@given(working_configs())
def test_phase_boundary_value_has_the_sign_of_the_working_condition(cfg):
    value = phase_boundary_value(cfg.T2, cfg.T3, base=cfg)
    assert working_condition(cfg) == (value > 0.0)
    assert_default_boundary_value(cfg.T2, cfg.T3)


def test_phase_boundary_value_takes_each_branch_on_the_default_boundary():
    assert assert_default_boundary_value(2.0, 10.0)
    # on the rounded boundary T3 = 4*T2/(6 - T2) the closed form reads 8.9e-16,
    # but x = 0 and the working condition is false
    assert not assert_default_boundary_value(2.5034, 2.8638105588285763)
    assert phase_boundary_value(2.5034, 2.8638105588285763) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.05, 10.0), angles,
    st.floats(0.05, 10.0), st.floats(0.0, 10.0), st.floats(0.05, 10.0), st.floats(0.0, 10.0),
)
def test_scan_phase_diagram_equals_per_cell_dense_exchange(e1, e3, t1, theta, t2_lo, t2_span,
                                                           t3_lo, t3_span):
    base = FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=t1, theta=theta)
    t2_range, t3_range = (t2_lo, t2_lo + t2_span), (t3_lo, t3_lo + t3_span)
    t2s, t3s, dq1 = scan_phase_diagram(t2_range, t3_range, (4, 3), base=base)
    cells = [(t2, t3) for t2 in np.linspace(*t2_range, 4) for t3 in np.linspace(*t3_range, 3)]
    assert list(zip(t2s.tolist(), t3s.tolist())) == cells
    for t2, t3, heat in zip(t2s.tolist(), t3s.tolist(), dq1.tolist()):
        cfg = base._replace(T2=t2, T3=t3)
        assert abs(heat - dense_exchange(cfg).dQ1) <= POP_TOL


CYCLE_CONFIGS = (FridgeConfig(), FridgeConfig(E1=0.7, E2=2.2, E3=1.5, T1=5.0, T2=3.0, T3=12.0))
CYCLE_ANGLES = (math.pi / 8.0, 0.9, math.pi / 2.0, 2.5, 4.0)


@pytest.mark.parametrize("cfg", CYCLE_CONFIGS)
@pytest.mark.parametrize("theta", CYCLE_ANGLES)
def test_run_cycles_matches_the_dense_loop(cfg, theta):
    kernel, dense = run_cycles(cfg._replace(theta=theta), 200), dense_cycles(cfg, 200, theta)
    assert len(kernel.n) == len(dense.n) == 201
    assert kernel.n.tolist() == dense.n.tolist()
    for n, got, want in zip(kernel.n.tolist(), kernel.T1.tolist(), dense.T1.tolist()):
        assert close_temperature(got, want), (n, got, want)
    for name in ("entropy_q1", "energy_q1", "dQ1"):
        for n, got, want in zip(kernel.n.tolist(), getattr(kernel, name).tolist(),
                                getattr(dense, name).tolist()):
            assert abs(got - want) <= POP_TOL, (n, name)


def contraction(cfg: FridgeConfig, theta: float) -> tuple[float, float]:
    """(r, p*): p1 - p* shrinks by r = 1 - sin^2(theta) [p2(1-p3) + (1-p2)p3] per cycle."""
    p2 = oracles.thermal_population(cfg.E2, cfg.T2)
    p3 = oracles.thermal_population(cfg.E3, cfg.T3)
    gain, loss = p2 * (1.0 - p3), (1.0 - p2) * p3
    return 1.0 - math.sin(theta) ** 2 * (gain + loss), gain / (gain + loss)


@pytest.mark.parametrize("cfg", CYCLE_CONFIGS)
@pytest.mark.parametrize("theta", CYCLE_ANGLES)
def test_cycle_contraction_rate_is_closed_form(cfg, theta):
    r, fixed = contraction(cfg, theta)
    p1 = (run_cycles(cfg._replace(theta=theta), 200).energy_q1 / cfg.E1).tolist()
    checked = 0
    for before, after in zip(p1[:-1], p1[1:]):
        if abs(before - fixed) < 1e-5:
            break  # closer in, rounding dominates the ratio
        assert abs((after - fixed) / (before - fixed) - r) <= 1e-9
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("cfg", CYCLE_CONFIGS)
@pytest.mark.parametrize("theta", CYCLE_ANGLES)
def test_detect_convergence_agrees_with_the_contraction_rate(cfg, theta):
    tol = 1e-8
    r, fixed = contraction(cfg, theta)
    p0 = oracles.thermal_population(cfg.E1, cfg.T1)
    temps = [oracles.effective_temperature(cfg.E1, fixed + r**n * (p0 - fixed))
             for n in range(400)]
    diffs = [abs(b - a) for a, b in zip(temps[:-1], temps[1:])]
    first = next(k for k, d in enumerate(diffs) if d < tol)  # diffs fall geometrically
    # keep clear of the threshold, so that rounding cannot decide the count
    assert diffs[first] < tol * (1.0 - 1e-6) and (first == 0 or diffs[first - 1] > tol * (1.0 + 1e-6))
    cycles = max(first + 5, 5)  # the first cycle whose last five steps are all below tol
    assert detect_convergence(run_cycles(cfg._replace(theta=theta), cycles).T1, tol)[0]
    assert not detect_convergence(run_cycles(cfg._replace(theta=theta), cycles - 1).T1, tol)[0]


@pytest.mark.parametrize(
    "populations", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7), (0.8, 0.2)]
)
def test_population_helpers_keep_the_dense_markers(populations):
    rho = DensityMatrix(np.diag(populations))
    temperature = spin_temperature(*populations, 1.3)
    dense = effective_temperature(rho, 1.3)
    assert temperature == dense or math.isclose(temperature, dense, rel_tol=1e-15)
    assert math.copysign(1.0, temperature) == math.copysign(1.0, dense)
    assert binary_entropy(*populations) == pytest.approx(von_neumann_entropy(rho), abs=1e-15)


# theta = 0 and pi keep p1 where it is (r = 1), 1e-9 moves it by about 1e-18
# per cycle, and 4.0 lies beyond pi
cycle_angles = st.one_of(st.sampled_from([0.0, math.pi, 1e-9, math.pi / 2.0, 4.0]), angles)


def well_conditioned(p: float) -> bool:
    """Whether T1 = E1 / ln((1 - p)/p) of a float p is good to TEMP_REL_TOL.

    p is held to about 1e-16 absolute, so ln((1 - p)/p) is off by about
    1e-16/(1 - p) near p = 1 and by 1e-16/|1 - 2p| near p = 1/2.
    """
    return min(1.0 - p, abs(1.0 - 2.0 * p)) >= 1e-6


# 0 and -0, pi, negative angles, and angles past pi and 2 pi
batch_angles = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -2.4, 7.0, 4.0]),
                         st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(configs(), st.lists(batch_angles, min_size=1, max_size=6), st.integers(1, 300),
       st.booleans())
def test_run_cycles_over_angles_is_the_one_angle_runs_concatenated(cfg, thetas, cycles, cooling):
    """One batched pass equals the one-angle runs, concatenated, bit for bit: 1-300
    cycles put each angle's row on every offset of the SIMD lanes."""
    assume(working_condition(cfg) == cooling)
    batched = run_cycles(cfg, cycles, thetas)
    runs = [run_cycles(cfg._replace(theta=theta), cycles) for theta in thetas]
    for name, column in zip(CycleColumns._fields, batched):
        expected = np.concatenate([getattr(run, name) for run in runs])
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(configs(), cycle_angles)
def test_run_cycles_matches_the_loop(cfg, theta):
    cfg = cfg._replace(theta=theta)
    n, t1, entropy, energy, dq1 = run_cycles(cfg, 200)
    loop = oracles.loop_cycles(cfg, 200)
    assert n.tolist() == loop.n.tolist() == list(range(201))
    # row 0 is the loop's initial state and row 1 one exchange, bit for bit
    assert energy[0] == loop.energy_q1[0] and dq1[0] == 0.0 and dq1[1] == exchange(cfg).dQ1
    for name, column in zip(("entropy_q1", "energy_q1", "dQ1"), (entropy, energy, dq1)):
        for k, (got, want) in enumerate(zip(column.tolist(), getattr(loop, name).tolist())):
            assert abs(got - want) <= POP_TOL, (k, name)
    for k, (got, want, p1) in enumerate(zip(t1.tolist(), loop.T1.tolist(),
                                            (loop.energy_q1 / cfg.E1).tolist())):
        if well_conditioned(p1):
            assert close_temperature(got, want), (k, got, want)


@settings(max_examples=200, deadline=None)
@given(configs(), cycle_angles)
def test_cycle_heats_add_up_to_the_energy_change(cfg, theta):
    _, _, _, energy, dq1 = run_cycles(cfg._replace(theta=theta), 200)
    assert np.max(np.abs(np.cumsum(dq1) - (energy - energy[0]))) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 0.3, 0.7])
def test_vectorised_temperature_and_entropy_keep_the_scalar_markers(p):
    """spin_temperature and binary_entropy give one result for floats and for
    arrays: the markers 0.0 (p = 0), -0.0 (p = 1) and +inf (p = 1/2), and the
    closed forms elsewhere."""
    temperature, entropy = spin_temperature(1.0 - p, p, 1.3), binary_entropy(1.0 - p, p)
    ground, excited = np.array([1.0 - p, 0.25]), np.array([p, 0.75])
    for got, want in ((spin_temperature(ground, excited, 1.3)[0], temperature),
                      (binary_entropy(ground, excited)[0], entropy)):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)  # a zero too
    markers = {0.0: 0.0, 1.0: -0.0, 0.5: math.inf}
    if p in markers:
        assert temperature == markers[p]
        assert math.copysign(1.0, temperature) == math.copysign(1.0, markers[p])
    else:
        assert math.isclose(temperature, oracles.effective_temperature(1.3, p), rel_tol=1e-15)
    assert math.isclose(entropy, oracles.binary_entropy(p), rel_tol=1e-15)


@st.composite
def near_boundary_configs(draw):
    """T1 within 1e-15 to 1e-6 relative of T_bound = E1 / (E2/T2 - E3/T3)."""
    e1, e3 = draw(gap_values), draw(gap_values)
    t2, t3 = draw(st.floats(0.1, 50.0)), draw(st.floats(0.1, 50.0))
    denom = (e1 + e3) / t2 - e3 / t3
    assume(denom > 0.0)
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-15.0, -6.0))
    return FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=e1 / denom * (1.0 + offset), T2=t2, T3=t3,
                        theta=draw(angles))


@settings(max_examples=400, deadline=None)
@given(st.one_of(configs(), near_boundary_configs()))
def test_exchange_flow_matches_the_decimal_oracle(cfg):
    """P010, P101 and delta within the rounding of their inputs, against 50 digits.

    Each E/T is off by up to u relative (u = 2^-53), so the margin x by up to
    3u S, S = E1/T1 + E2/T2 + E3/T3, which moves delta = -sin^2(theta) P010
    expm1(x) by up to sin^2(theta) P101 3u S.  Every other step adds at most
    u E/T to a factor e^(-E/T), and a few u more, so (2S + 16)u relative,
    and each of them at most half a subnormal step where it underflows.
    """
    want = oracles.decimal_flow(cfg)
    report = exchange(cfg)
    got = (report.P010_before, report.P101_before,
           exchange_flow(*boltzmann_margin(cfg.gaps, cfg.temps), cfg.theta))
    u = 2.0 ** -53
    total = sum(gap / temp for gap, temp in zip(cfg.gaps, cfg.temps))
    rounding = (2.0 * total + 16.0) * u
    underflow = 8.0 * 2.0 ** -1074
    bounds = (rounding * float(want[0]) + underflow, rounding * float(want[1]) + underflow,
              rounding * abs(float(want[2]))
              + 3.0 * total * u * math.sin(cfg.theta) ** 2 * float(want[1]) + underflow)
    for name, g, w, bound in zip(("P010", "P101", "delta"), got, want, bounds):
        assert abs(float(Decimal(float(g)) - w)) <= bound, (name, float(g), float(w), bound)


def test_run_cycles_matches_the_decimal_trajectory(rng):
    """p to 1e-12 and T1 to TEMP_REL_TOL relative of a 50-digit loop on every row
    but those within 1e-6 of p = 1/2, including the rows near full inversion
    (1 - p < 1e-6) that test_run_cycles_matches_the_loop cannot check."""
    inverted = 0
    for _ in range(80):
        e1, e3 = rng.uniform(0.05, 20.0, 2)
        ratios = np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 3))
        cfg = FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=e1 / ratios[0], T2=(e1 + e3) / ratios[1],
                           T3=e3 / ratios[2], theta=rng.uniform(0.0, 2.0 * math.pi))
        cols = run_cycles(cfg, 120)
        populations, temperatures = oracles.decimal_cycles(cfg, 120)
        for n, (p, t1) in enumerate(zip(populations, temperatures)):
            got_p = cols.energy_q1[n] / cfg.E1
            assert abs(got_p - float(p)) <= 1e-12 * float(p), (cfg, n)
            if abs(1 - 2 * p) >= Decimal("1e-6"):
                assert close_temperature(cols.T1[n], float(t1)), (cfg, n, cols.T1[n], float(t1))
            inverted += 1 - p < Decimal("1e-6")
    assert inverted > 100
