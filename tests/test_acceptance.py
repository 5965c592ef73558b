"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test drives the public surface (CLI where a subcommand is named,
library otherwise), then records one PASS/FAIL line; the lines are echoed
in the terminal summary by the conftest hook.
"""

import math

import numpy as np

import oracles
from conftest import ACCEPTANCE_LINES
from spinfridge import (
    DensityMatrix,
    FridgeConfig,
    Operator,
    SpinSpec,
    bcs_bias,
    carnot_limit,
    compile_exchange,
    cop,
    effective_temperature,
    evolve,
    exchange,
    expected_purified,
    herm_exp,
    initial_state,
    internal_energy,
    ledger_step,
    permute_blocks,
    simulate_bcs,
    thermal_state,
    two_spin_swap,
    verify,
    von_neumann_entropy,
    working_condition,
)
from spinfridge.cli import main

T_BOUND = 10.0 / 13.0
THETAS = (math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0, math.pi / 2.0)


def check(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_01_bound_temperature(tmp_path):
    out = tmp_path / "cycles.csv"
    theta_arg = ",".join(repr(t) for t in THETAS)
    code = main(["cycles", "--cycles", "400", "--theta", theta_arg, "--out", str(out)])
    rows = read_csv(out)

    ok = code == 0
    details = []
    hit_counts = []
    for theta in THETAS:
        temps = [float(r["T1"]) for r in rows if float(r["theta"]) == theta]
        ok = ok and len(temps) == 401
        # converged: the last five successive differences are negligible
        diffs = [abs(b - a) for a, b in zip(temps[-6:-1], temps[-5:])]
        ok = ok and all(d < 1e-8 for d in diffs)
        ok = ok and abs(temps[-1] - T_BOUND) < 1e-4
        first_hit = next(n for n, t in enumerate(temps) if abs(t - T_BOUND) < 1e-3)
        hit_counts.append(first_hit)
        details.append(f"theta={theta:.3f}: limit={temps[-1]:.6f}, cycles={first_hit}")
    # larger theta converges in fewer cycles
    ok = ok and all(b < a for a, b in zip(hit_counts[:-1], hit_counts[1:]))
    check(1, "cycle limit 10/13 within 1e-4 for all theta; larger theta is faster",
          ok, "; ".join(details))


def test_criterion_02_zero_net_work(tmp_path):
    out = tmp_path / "ledger.csv"
    code = main(["ledger", "--theta", repr(math.pi / 2.0), "--out", str(out)])
    rows = read_csv(out)
    cumulative = [float(r["cumulative_work"]) for r in rows]
    heats = [abs(float(r["dQ1"])) for r in rows]

    ok = code == 0 and len(rows) == 40
    ok = ok and abs(cumulative[-1]) <= 1e-9
    ok = ok and max(abs(c) for c in cumulative[:-1]) > 1e-3
    ok = ok and max(heats) <= 1e-10
    check(2, "40-step ledger: |total work| <= 1e-9, excursions > 1e-3, dQ1 = 0",
          ok, f"final={cumulative[-1]:.2e}, peak={max(map(abs, cumulative)):.3f}")


def test_criterion_03_decomposition_identity(tmp_path):
    thetas = (0.0, math.pi / 8.0, math.pi / 4.0, math.pi / 2.0)
    out = tmp_path / "seq.csv"
    code = main(
        ["verify-decomposition", "--theta", ",".join(repr(t) for t in thetas),
         "--out", str(out)]
    )
    fidelities = [verify(compile_exchange(t)) for t in thetas]
    permuted = [
        verify(permute_blocks(compile_exchange(t), (2, 0, 3, 1))) for t in thetas
    ]
    ok = code == 0
    ok = ok and all(f >= 1.0 - 1e-10 for f in fidelities)
    ok = ok and all(f >= 1.0 - 1e-10 for f in permuted)
    check(3, "decomposition fidelity >= 1 - 1e-10, block order irrelevant",
          ok, f"min fidelity={min(fidelities + permuted):.15f}")


def test_criterion_04_working_condition_phase_boundary(tmp_path):
    out = tmp_path / "phase.csv"
    code = main(["phase-diagram", "--grid", "2,6,2,10,41", "--out", str(out)])
    rows = read_csv(out)
    ok = code == 0 and len(rows) == 41 * 41

    mismatches = 0
    for row in rows:
        t2, t3, dq1 = float(row["T2"]), float(row["T3"]), float(row["dQ1"])
        boundary = 6.0 * t3 - 4.0 * t2 - t2 * t3
        if abs(boundary) > 0.5 and not (dq1 * boundary < 0.0):
            mismatches += 1
    ok = ok and mismatches == 0

    worst = 0.0
    for t3 in np.linspace(2.0, 10.0, 41):
        t2 = 6.0 * t3 / (4.0 + t3)
        report = exchange(FridgeConfig(T1=2.0, T2=float(t2), T3=float(t3)))
        worst = max(worst, abs(report.dQ1))
    ok = ok and worst <= 1e-9
    check(4, "dQ1 sign matches 6T3-4T2-T2T3 on the 41x41 grid; boundary is heatless",
          ok, f"mismatches={mismatches}, max |dQ1| on curve={worst:.2e}")


def test_criterion_05_single_exchange_cooling():
    report = exchange(FridgeConfig())
    ok = report.T1_after < 2.0
    ok = ok and report.T3_after < 10.0
    ok = ok and report.T2_after > 2.0
    ok = ok and abs(report.dQ1 + report.dQ2 + report.dQ3) <= 1e-10
    ok = ok and abs(report.dQ1 / report.dQ3 - 0.5) <= 1e-9
    check(5, "full exchange cools spins 1 and 3, heats spin 2, COP ratio E1/E3",
          ok, f"T1'={report.T1_after:.4f}, dQ1/dQ3={report.dQ1 / report.dQ3:.12f}")


def test_criterion_06_thermodynamic_law_compliance():
    rng = np.random.default_rng(60606)
    accepted = 0
    violations = 0
    while accepted < 10_000:
        e1, e3 = rng.uniform(0.2, 4.0, size=2)
        t1 = rng.uniform(0.2, 8.0)
        t2 = t1 + rng.uniform(1e-3, 6.0)
        t3 = t2 + rng.uniform(1e-3, 8.0)
        cfg = FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=t1, T2=t2, T3=t3)
        if not working_condition(cfg):
            continue
        accepted += 1
        if cop(cfg) > carnot_limit(t1, t2, t3) + 1e-12:
            violations += 1
    check(6, "COP never exceeds the Carnot product over 10^4 working configs",
          violations == 0, f"violations={violations}/10000")


def test_criterion_07_two_spin_baseline():
    rng = np.random.default_rng(70707)
    worst = 0.0
    min_work = math.inf
    for _ in range(100):
        e1 = rng.uniform(0.3, 3.0)
        e2 = e1 + rng.uniform(0.1, 3.0)
        t0 = rng.uniform(0.5, 20.0)
        t_after, work = two_spin_swap(e1, e2, t0)
        worst = max(worst, abs(t_after - t0 * e1 / e2))
        min_work = min(min_work, work)
    ok = worst <= 1e-10 and min_work > 0.0
    check(7, "SWAP baseline reaches T0*E1/E2 within 1e-10 and always costs work",
          ok, f"max |dT|={worst:.2e}, min work={min_work:.2e}")


def test_criterion_08_exchanged_level_populations():
    worst = 0.0
    signs = []
    t2_grid = np.linspace(2.0, 6.0, 41)
    for t2 in t2_grid:
        cfg = FridgeConfig(T1=2.0, T2=float(t2), T3=10.0)
        pops = initial_state(cfg).populations
        p010, p101 = oracles.exchanged_level_populations(
            (1.0, 3.0, 2.0), (2.0, float(t2), 10.0)
        )
        worst = max(worst, abs(pops[0b010] - p010), abs(pops[0b101] - p101))
        signs.append(pops[0b101] - pops[0b010])
    ok = worst <= 1e-12

    crossings = [
        (float(t2_grid[i]), float(t2_grid[i + 1]))
        for i in range(len(signs) - 1)
        if signs[i] > 0.0 >= signs[i + 1]
    ]
    analytic_crossing = 30.0 / 7.0  # working condition at equality for T1=2, T3=10
    ok = ok and len(crossings) == 1
    ok = ok and crossings[0][0] <= analytic_crossing <= crossings[0][1]
    check(8, "P010/P101 match closed forms within 1e-12; crossing at the equality point",
          ok, f"max err={worst:.2e}, crossing bracket={crossings[0] if crossings else None}")


def test_criterion_09_algorithmic_cooling():
    ok = abs(bcs_bias(0.5) - 0.8) <= 1e-15
    ok = ok and expected_purified(4, 100, 0.5) == 125.0

    n_bits = 1_000_000
    within = 0
    for seed in range(100):
        final = simulate_bcs(n_bits, 0.5, 1, seed=seed).rounds[-1]
        q = (1.0 + final.analytic_bias) / 2.0
        sigma = 2.0 * math.sqrt(q * (1.0 - q) / final.retained_bits)
        if abs(final.empirical_bias - final.analytic_bias) <= 4.0 * sigma:
            within += 1
    ok = ok and within >= 99
    check(9, "bias 0.5 -> 0.8, yield 125, stochastic engine within 4 sigma",
          ok, f"seeds within 4 sigma: {within}/100")


def test_criterion_10_core_property_suites():
    rng = np.random.default_rng(101010)
    ok = True

    # unitarity, trace, hermiticity, PSD, spectrum preservation
    for _ in range(50):
        dim = int(rng.choice([2, 4, 8]))
        rho = DensityMatrix(oracles.random_density(rng, dim))
        u = herm_exp(Operator(oracles.random_hermitian(rng, dim)), rng.uniform(-3, 3))
        ok = ok and u.is_unitary()
        after = evolve(rho, u)
        ok = ok and abs(float(np.trace(after.matrix).real) - 1.0) <= 1e-12
        ok = ok and np.max(np.abs(after.matrix - after.matrix.conj().T)) <= 1e-12
        ok = ok and after.eigenvalues()[0] >= -1e-10
        ok = ok and np.max(
            np.abs(np.sort(after.eigenvalues()) - np.sort(rho.eigenvalues()))
        ) <= 1e-9

    # four-phase ledger identity against the energy delta
    h_sys = Operator(np.diag([0.0, 2.0, 3.0, 5.0, 1.0, 3.0, 4.0, 6.0]))
    for _ in range(50):
        rho = DensityMatrix(oracles.random_density(rng, 8))
        gen = Operator(oracles.random_hermitian(rng, 8))
        after, entry = ledger_step(rho, gen, h_sys)
        delta = internal_energy(after, h_sys) - internal_energy(rho, h_sys)
        ok = ok and abs(entry.net_work - delta) <= 1e-10
        ok = ok and abs(entry.dQ1) <= 1e-10
        ok = ok and abs(entry.net_work - (entry.dW1 + entry.dQ1 + entry.dW2)) <= 1e-12

    # entropy is unitarily invariant
    for _ in range(50):
        rho = DensityMatrix(oracles.random_density(rng, 8))
        u = Operator(oracles.random_unitary(rng, 8))
        ok = ok and abs(
            von_neumann_entropy(evolve(rho, u)) - von_neumann_entropy(rho)
        ) <= 1e-10

    # thermal-state / effective-temperature round trip
    for temp in np.geomspace(0.1, 100.0, 20):
        for gap in np.linspace(0.5, 5.0, 10):
            rho = thermal_state(SpinSpec(float(gap), float(temp)))
            ok = ok and abs(effective_temperature(rho, float(gap)) - temp) <= 1e-9

    check(10, "unitarity/trace/PSD, ledger identity, entropy invariance, round trip",
          ok)
