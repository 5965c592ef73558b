"""Report the worst relative error of closed forms against decimal oracles.

    python tests/accuracy.py

prints a header, then one ``quantity worst_relative_error inputs`` line per
quantity: ``two_spin_swap`` (its ``T_after`` and its ``work``) and
``carnot_limit``, each against the 50-digit oracles of ``tests/oracles.py``
at the exact values of its float inputs.  The inputs are seeded sweeps of
E/T log-uniform from 1e-6 to 700 (``oracles.swap_inputs`` and
``oracles.carnot_inputs``), so a run prints the same report on the same
numpy.  The package must be importable (installed, or ``src`` on
PYTHONPATH).  The name does not start with ``test_``, so pytest does not
collect it.
"""

from __future__ import annotations

import oracles
from spinfridge import carnot_limit, two_spin_swap


def report() -> list[tuple[str, float, int]]:
    """(quantity, worst relative error, number of inputs) per quantity."""
    pairs = [(two_spin_swap(*args), oracles.decimal_swap(*args))
             for args in oracles.swap_inputs()]
    rows = [(f"two_spin_swap.{name}",
             [oracles.relative_error(got[k], want[k]) for got, want in pairs])
            for k, name in enumerate(("T_after", "work"))]
    rows.append(("carnot_limit", [oracles.relative_error(carnot_limit(*args),
                                                         oracles.decimal_carnot(*args))
                                  for args in oracles.carnot_inputs()]))
    return [(name, max(errors), len(errors)) for name, errors in rows]


def main() -> int:
    print("quantity worst_relative_error inputs")
    for name, worst, count in report():
        print(f"{name} {worst:.1e} {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
