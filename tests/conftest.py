"""Shared fixtures and strategies, and the acceptance-criteria summary hook."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spinfridge import FridgeConfig

# one line per acceptance criterion, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def working_configs(draw):
    # the criterion-6 sampler: ordered bath temperatures T1 <= T2 < T3
    e1, e3 = draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 4.0))
    t1 = draw(st.floats(0.2, 8.0))
    t2 = t1 + draw(st.floats(1e-3, 6.0))
    t3 = t2 + draw(st.floats(1e-3, 8.0))
    return FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=t1, T2=t2, T3=t3,
                        theta=draw(st.floats(0.05, math.pi / 2.0)))
