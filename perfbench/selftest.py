"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

Checks that op lists are a pure function of the seed, and that every output
check rejects a real artifact in which one value has been perturbed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import unittest

import checks
import run
import workloads


def _first(workload: str, command: str, seed: int = 5) -> workloads.Op:
    """The smallest op of a command in the first block (fewest rounds for bcs)."""
    ops = [op for op in workloads.block_ops(workload, seed, 0) if op.command == command]
    return min(ops, key=lambda op: (op.units, op.params.get("rounds", 0)))


class SeededOps(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            for block in range(3):
                first = [op.argv("x") for op in workloads.block_ops(workload, 11, block)]
                again = [op.argv("x") for op in workloads.block_ops(workload, 11, block)]
                self.assertEqual(first, again)

    def test_other_seed_other_ops(self):
        for workload in workloads.WORKLOADS:
            first = [op.argv("x") for op in workloads.block_ops(workload, 11, 0)]
            other = [op.argv("x") for op in workloads.block_ops(workload, 12, 0)]
            self.assertNotEqual(first, other)

    def test_blocks_hold_every_size_class_once(self):
        for workload in workloads.WORKLOADS:
            classes = [[op.size_class for op in workloads.block_ops(workload, s, b)]
                       for s, b in ((1, 0), (2, 3))]
            self.assertEqual(sorted(classes[0]), sorted(classes[1]))

    def test_negative_angles_pass_as_one_token(self):
        op = _first("pulse-ledger", "verify-decomposition")
        self.assertTrue(any(arg.startswith("--theta=") for arg in op.argv("x")))

    def test_tail_has_ten_samples_beyond(self):
        values = [float(v) for v in range(49)]
        percentile, value = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 100.0 * 39 / 49)


class ChecksRejectPerturbations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run._import_package()
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def artifact(self, op: workloads.Op) -> tuple[list[dict], str]:
        out = os.path.join(self.tmp.name, "artifact")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(self.cli.main(op.argv(out)), 0)
        rows = checks.read_rows(out, op.fmt)
        checks.check_op(op.command, op.params, rows, err.getvalue())  # the real artifact passes
        return rows, err.getvalue()

    def assertRejected(self, op, rows, stderr=""):
        with self.assertRaises(checks.CheckFailed):
            checks.check_op(op.command, op.params, rows, stderr)

    @staticmethod
    def largest(rows, column):
        return max(range(len(rows)), key=lambda i: abs(rows[i][column]))

    def test_phase_diagram(self):
        op = _first("phase-sweep", "phase-diagram")
        rows, _ = self.artifact(op)
        i = self.largest(rows, "dQ1")
        rows[i]["dQ1"] = -rows[i]["dQ1"]
        self.assertRejected(op, rows)
        self.assertRejected(op, self.artifact(op)[0][:-1])

    def test_cop(self):
        op = _first("phase-sweep", "cop")
        for column in ("dQ1", "dQ3", "T2", "cop"):
            rows, _ = self.artifact(op)
            i = self.largest(rows, column)
            rows[i][column] = -rows[i][column]
            self.assertRejected(op, rows)
        rows, _ = self.artifact(op)
        finite = [i for i, row in enumerate(rows) if math.isfinite(row["carnot_limit"])]
        rows[finite[0]]["carnot_limit"] *= 1.0 + 1e-9
        self.assertRejected(op, rows)

    def test_cycles(self):
        op = _first("cooling-cycles", "cycles")
        rows, _ = self.artifact(op)
        i = self.largest(rows, "dQ1")
        rows[i]["dQ1"] = -rows[i]["dQ1"]
        self.assertRejected(op, rows)
        rows, _ = self.artifact(op)
        rows[-1]["T1"] *= 1.0 + 1e-6
        self.assertRejected(op, rows)

    def test_ledger(self):
        op = _first("pulse-ledger", "ledger")
        rows, _ = self.artifact(op)
        rows[-1]["cumulative_work"] = 1e-6
        self.assertRejected(op, rows)
        rows, _ = self.artifact(op)
        rows[7]["dQ1"] = 2e-9
        self.assertRejected(op, rows)

    def test_verify_decomposition(self):
        op = _first("pulse-ledger", "verify-decomposition")
        rows, stderr = self.artifact(op)
        theta = stderr.split()[0]
        self.assertRejected(op, rows, f"{theta} fidelity=0.9999999\n")
        self.assertRejected(op, rows[:-1], stderr)
        self.assertRejected(op, rows, "")

    def test_bcs(self):
        op = _first("bit-pool", "bcs")
        rows, _ = self.artifact(op)
        rows[-1]["analytic_bias"] += 1e-9
        self.assertRejected(op, rows)
        rows, _ = self.artifact(op)
        rows[-1]["retained_bits"] = rows[0]["retained_bits"] + 2
        self.assertRejected(op, rows)
        rows, _ = self.artifact(op)
        rows[-1]["empirical_bias"] = min(0.999, rows[-1]["analytic_bias"] + 0.05)
        self.assertRejected(op, rows)

    def test_bias_test_allows_a_single_one_bit(self):
        # one 1-bit among 28681 where 0.009 are expected: rare, but not wrong
        n, eps = 28681, 0.9999993532617523
        self.assertLess(n * checks._kl_bernoulli(1 / n, (1 - eps) / 2), checks.BIAS_CHERNOFF)
        # where the count is near Gaussian, the bound sits at 6 sigma
        n, q = 300_000, 0.25
        six_sigma = q + 6 * math.sqrt(q * (1 - q) / n)
        self.assertAlmostEqual(n * checks._kl_bernoulli(six_sigma, q), checks.BIAS_CHERNOFF, delta=0.5)

    def test_bit_pool_bias_cap(self):
        # the pure-pool example of the seed commit lies above its class's cap
        self.assertLess(workloads.pool_bias_cap(1_000_000, 4), 0.5)
        # and pools at the cap itself stay mixed through the last round
        for rounds in workloads.POOL_ROUNDS:
            eps0 = workloads.pool_bias_cap(1_000_000, rounds)
            for seed in range(3):
                op = workloads.Op("bcs", "cap", "csv", 1_000_000,
                                  {"bits": 1_000_000, "epsilon0": eps0, "rounds": rounds, "seed": seed})
                rows, _ = self.artifact(op)
                self.assertLess(rows[-1]["empirical_bias"], 1.0)

    def test_pool_defect_message(self):
        self.assertTrue(checks.POOL_DEFECT.match("error: bias must lie in (-1, 1), got 1.0\n"))
        self.assertTrue(checks.POOL_DEFECT.match("error: bias must lie in [0, 1), got 1.0\n"))
        self.assertFalse(checks.POOL_DEFECT.match("error: bias must lie in (-1, 1), got 0.5\n"))


if __name__ == "__main__":
    unittest.main()
