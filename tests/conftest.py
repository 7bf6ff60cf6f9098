"""Shared fixtures for the suite.

The expensive part of testing is the truncated-Fock RK4 integration, so
the snapshot tables used by the equivalence and consistency checks are
computed once per session and shared.  The oracle picks each row's
truncation dimension (fock_oracle.evolve_truncated) and its step.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from sqbath import (
    Cat,
    Coherent,
    MomentTable,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    ReservoirParams,
    SqueezedCoherent,
    StateSpec,
    Thermal,
)
from sqbath import fock_oracle

GT_GRID = np.round(0.1 * np.arange(21), 10)  # scaled time 0, 0.1, ..., 2.0

RESERVOIRS: dict[str, ReservoirParams] = {
    "saturated": ReservoirParams(N=1.0, M=-math.sqrt(2.0)),
    "mixed": ReservoirParams(N=2.0, M=1.0),
    "thermal": ReservoirParams(N=1.0, M=0.0),
}

STATES: dict[str, StateSpec] = {
    "coherent": Coherent(1.0),
    "thermal": Thermal(1.0),
    "squeezed": SqueezedCoherent(1.0, 1.0),
    "added_coherent": PhotonAddedCoherent(1.0),
    "added_thermal": PhotonAddedThermal(1.0),
    "cat": Cat(1.0, 0.0),
}

GAUSSIAN_KEYS = ("coherent", "thermal", "squeezed")


@dataclass(frozen=True)
class SnapshotSet:
    """Oracle moment tables on GT_GRID for every catalogue scenario."""

    tables: dict[tuple[str, str], list[MomentTable]]
    dims: dict[tuple[str, str], int]  # the truncation the oracle chose
    elapsed: float  # wall seconds spent integrating + extracting


@pytest.fixture(scope="session")
def oracle_snapshots() -> SnapshotSet:
    t0 = time.perf_counter()
    tables: dict[tuple[str, str], list[MomentTable]] = {}
    dims: dict[tuple[str, str], int] = {}
    for skey, state in STATES.items():
        for rkey, res in RESERVOIRS.items():
            times = [gt / res.gamma for gt in GT_GRID]
            dims[(skey, rkey)], snaps = fock_oracle.evolve_truncated(state, res, times)
            tables[(skey, rkey)] = [fock_oracle.moments_from_rho(r) for r in snaps]
    return SnapshotSet(tables=tables, dims=dims, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion, shown after the test run

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
