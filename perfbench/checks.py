"""Output checks against closed forms, independent of the package under test.

Every op's artifact is read back and compared with formulas computed here
from the op's own parameters. Nothing in this file imports spinfridge or the
repository's tests.

Closed forms used:

* excited population of a spin with gap E at temperature T:
  p = 1 / (1 + exp(E/T));
* P010 = (1-p1) p2 (1-p3) and P101 = p1 (1-p2) p3; an exchange by angle
  theta moves spin 1 and spin 3 by sin^2(theta) (P010 - P101) each, so
  dQ1 = E1 sin^2(theta) (P010 - P101) and dQ3 = E3 sin^2(theta) (P010 - P101);
* one refrigeration cycle (exchange, then fresh baths for spins 2 and 3) is
  the affine map p1 <- p1 + sin^2(theta) [(1-p1) p2 (1-p3) - p1 (1-p2) p3];
* one bit-compression round maps the bias eps to 2 eps / (1 + eps^2), and
  the retained bits are i.i.d. at that bias, so the count k of ones among
  n retained bits is Binomial(n, (1 - eps) / 2).
"""

from __future__ import annotations

import csv
import json
import math
import re

POP_TOL = 1e-12  # the acceptance suite's tolerance on populations and heats
REL_TOL = 1e-12  # grid values, COP, Carnot limit, analytic bias
TEMP_REL_TOL = 1e-9  # temperatures read off populations amplify rounding
LEDGER_TOL = 1e-9
FIDELITY_GATE = 1.0 - 1e-8
# Chernoff bound: P(count at least as far out as k) <= exp(-n D(k/n || q)).
# 18 = 6^2 / 2 is the 6-sigma rule where the count is near Gaussian, and it
# stays valid when fewer than one 1-bit is expected. There a plain 6-sigma
# test rejects every pool that is not pure, and pure pools make the seed
# commit exit 1.
BIAS_CHERNOFF = 18.0

# The seed commit's bcs raises this once the retained pool (or the analytic
# recursion) reaches bias 1.0; the op exits 1.
POOL_DEFECT = re.compile(r"^error: bias must lie in (\(-1, 1\)|\[0, 1\)), got 1\.0\n$")
_FIDELITY_LINE = re.compile(r"^theta=(\S+) fidelity=(\S+)$")


class CheckFailed(Exception):
    """The artifact disagrees with its closed-form reference."""


def _number(value):
    try:
        return float(value)
    except ValueError:
        return value  # a label, such as a pulse name


def read_rows(path: str, fmt: str) -> list[dict]:
    """Artifact rows with every numeric value as a float (csv and json alike)."""
    with open(path, "r", encoding="utf-8") as handle:
        if fmt == "csv":
            rows = list(csv.DictReader(handle))
        else:
            rows = json.load(handle)["data"]
    # json carries non-finite floats as the strings 'inf', '-inf', 'nan'
    return [{k: _number(v) for k, v in row.items()} for row in rows]


def excited(E: float, T: float) -> float:
    return 1.0 / (1.0 + math.exp(E / T))


def exchanged_flow(p1: float, p2: float, p3: float, theta: float) -> float:
    """Population moved into spin 1's excited level by one exchange."""
    return math.sin(theta) ** 2 * ((1.0 - p1) * p2 * (1.0 - p3) - p1 * (1.0 - p2) * p3)


def _close(actual: float, expected: float, rel: float = REL_TOL, abs_: float = 0.0) -> bool:
    if math.isinf(expected) or math.isnan(expected):
        return actual == expected or (math.isnan(expected) and math.isnan(actual))
    return abs(actual - expected) <= max(abs_, rel * abs(expected))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _grid_axis(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def check_phase_diagram(params: dict, rows: list[dict]) -> None:
    t2_min, t2_max, t3_min, t3_max, n = params["grid"]
    _expect(len(rows) == n * n, f"expected {n * n} rows, got {len(rows)}")
    e1, e2, e3 = params["e1"], params["e2"], params["e3"]
    p1 = excited(e1, params["t1"])
    theta = params["theta"][0]
    t2s, t3s = _grid_axis(t2_min, t2_max, n), _grid_axis(t3_min, t3_max, n)
    for index, row in enumerate(rows):
        t2, t3 = t2s[index // n], t3s[index % n]
        _expect(_close(row["T2"], t2) and _close(row["T3"], t3),
                f"row {index}: grid point ({row['T2']}, {row['T3']}) != ({t2}, {t3})")
        dq1 = e1 * exchanged_flow(p1, excited(e2, t2), excited(e3, t3), theta)
        _expect(_close(row["dQ1"], dq1, abs_=POP_TOL),
                f"row {index}: dQ1 {row['dQ1']!r} != {dq1!r}")


def check_cop(params: dict, rows: list[dict]) -> None:
    t2_min, t2_max, _, _, n = params["grid"]
    _expect(len(rows) == n, f"expected {n} rows, got {len(rows)}")
    e1, e2, e3 = params["e1"], params["e2"], params["e3"]
    t1, t3 = params["t1"], params["t3"]
    p1, p3 = excited(e1, t1), excited(e3, t3)
    theta = params["theta"][0]
    for index, (row, t2) in enumerate(zip(rows, _grid_axis(t2_min, t2_max, n))):
        _expect(_close(row["T2"], t2), f"row {index}: T2 {row['T2']!r} != {t2!r}")
        _expect(_close(row["cop"], e1 / e3), f"row {index}: cop {row['cop']!r} != E1/E3")
        if t1 <= t2 < t3:
            carnot = math.inf if t1 == t2 else (t3 - t2) * t1 / (t3 * (t2 - t1))
        else:
            carnot = math.nan
        _expect(_close(row["carnot_limit"], carnot),
                f"row {index}: carnot_limit {row['carnot_limit']!r} != {carnot!r}")
        flow = exchanged_flow(p1, excited(e2, t2), p3, theta)
        _expect(_close(row["dQ1"], e1 * flow, abs_=POP_TOL),
                f"row {index}: dQ1 {row['dQ1']!r} != {e1 * flow!r}")
        _expect(_close(row["dQ3"], e3 * flow, abs_=POP_TOL),
                f"row {index}: dQ3 {row['dQ3']!r} != {e3 * flow!r}")


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0.0)


def check_cycles(params: dict, rows: list[dict]) -> None:
    cycles, thetas = params["cycles"], params["theta"]
    _expect(len(rows) == len(thetas) * (cycles + 1),
            f"expected {len(thetas) * (cycles + 1)} rows, got {len(rows)}")
    e1 = params["e1"]
    p2, p3 = excited(params["e2"], params["t2"]), excited(params["e3"], params["t3"])
    index = 0
    for theta in thetas:
        p1 = excited(e1, params["t1"])
        for n in range(cycles + 1):
            row = rows[index]
            dp1 = 0.0 if n == 0 else exchanged_flow(p1, p2, p3, theta)
            p1 += dp1
            where = f"row {index} (theta={theta!r}, n={n})"
            _expect(row["n"] == n and row["theta"] == theta, f"{where}: wrong n/theta")
            t1 = e1 / math.log((1.0 - p1) / p1)
            _expect(_close(row["T1"], t1, rel=TEMP_REL_TOL), f"{where}: T1 {row['T1']!r} != {t1!r}")
            _expect(_close(row["dQ1"], e1 * dp1, abs_=POP_TOL),
                    f"{where}: dQ1 {row['dQ1']!r} != {e1 * dp1!r}")
            _expect(_close(row["energy_q1"], e1 * p1, abs_=POP_TOL),
                    f"{where}: energy_q1 {row['energy_q1']!r} != {e1 * p1!r}")
            entropy = _binary_entropy(p1)
            _expect(_close(row["entropy_q1"], entropy, abs_=POP_TOL),
                    f"{where}: entropy_q1 {row['entropy_q1']!r} != {entropy!r}")
            index += 1


def check_ledger(params: dict, rows: list[dict]) -> None:
    _expect(len(rows) == 40, f"expected 40 rows, got {len(rows)}")
    cumulative = 0.0
    for index, row in enumerate(rows, start=1):
        _expect(row["step_index"] == index, f"row {index}: step_index {row['step_index']!r}")
        _expect(abs(row["dQ1"]) <= LEDGER_TOL, f"row {index}: |dQ1| = {abs(row['dQ1'])!r} > 1e-9")
        cumulative += row["net_work"]
        _expect(_close(row["cumulative_work"], cumulative, abs_=POP_TOL),
                f"row {index}: cumulative_work is not the running sum of net_work")
    final = rows[-1]["cumulative_work"]
    _expect(abs(final) <= LEDGER_TOL, f"final cumulative work {final!r} exceeds 1e-9")


def check_verify(params: dict, rows: list[dict], stderr: str) -> None:
    _expect(len(rows) == 40, f"expected 40 step rows, got {len(rows)}")
    _expect([row["index"] for row in rows] == list(range(1, 41)), "step indices are not 1..40")
    lines = stderr.splitlines()
    thetas = params["theta"]
    _expect(len(lines) == len(thetas), f"expected {len(thetas)} fidelity lines, got {len(lines)}")
    for theta, line in zip(thetas, lines):
        match = _FIDELITY_LINE.match(line)
        _expect(match is not None, f"malformed fidelity line {line!r}")
        _expect(float(match.group(1)) == theta, f"fidelity line for {match.group(1)}, expected {theta!r}")
        fidelity = float(match.group(2))
        _expect(FIDELITY_GATE <= fidelity <= 1.0 + POP_TOL, f"theta={theta!r}: fidelity {fidelity!r}")


def _kl_bernoulli(a: float, q: float) -> float:
    """KL divergence D(a || q) between Bernoulli distributions, 0 ln 0 = 0."""
    if a == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    head = a * math.log(a / q) if a > 0.0 else 0.0
    tail = (1.0 - a) * (math.log1p(-a) - math.log1p(-q)) if a < 1.0 else 0.0
    return head + tail


def check_bcs(params: dict, rows: list[dict]) -> None:
    rounds = params["rounds"]
    _expect(len(rows) == rounds + 1, f"expected {rounds + 1} rows, got {len(rows)}")
    eps = params["epsilon0"]
    previous_bits = params["bits"]
    for index, row in enumerate(rows):
        if index:
            eps = 2.0 * eps / (1.0 + eps * eps)
        _expect(row["round"] == index, f"row {index}: round {row['round']!r}")
        _expect(_close(row["analytic_bias"], eps),
                f"round {index}: analytic_bias {row['analytic_bias']!r} != {eps!r}")
        bits = row["retained_bits"]
        _expect(bits <= previous_bits, f"round {index}: retained_bits rose to {bits!r}")
        previous_bits = bits
        if bits:
            ones = round(bits * (1.0 - row["empirical_bias"]) / 2.0)
            surprise = bits * _kl_bernoulli(ones / bits, (1.0 - eps) / 2.0)
            _expect(surprise <= BIAS_CHERNOFF,
                    f"round {index}: {ones} ones in {bits:.0f} bits is too unlikely at bias "
                    f"{eps!r} (n*KL = {surprise:.1f})")
    _expect(rows[0]["retained_bits"] == params["bits"], "round 0 must hold the whole pool")


def check_op(command: str, params: dict, rows: list[dict], stderr: str) -> None:
    """Raise CheckFailed unless a successful op's artifact matches its reference."""
    if command == "phase-diagram":
        check_phase_diagram(params, rows)
    elif command == "cop":
        check_cop(params, rows)
    elif command == "cycles":
        check_cycles(params, rows)
    elif command == "ledger":
        check_ledger(params, rows)
    elif command == "verify-decomposition":
        check_verify(params, rows, stderr)
    elif command == "bcs":
        check_bcs(params, rows)
    else:
        raise CheckFailed(f"no check for command {command!r}")
