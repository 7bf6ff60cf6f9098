#!/usr/bin/env python3
"""Self-convergence study for the Fock-space oracle.

Shows how the worst moment deviation from the analytic layer changes as
the integrator step is halved from the oracle's derived step, at dim 128
where truncation sits below the step error, and as the truncation
dimension grows at the derived step, for one scenario: the error that
fock_oracle.evolve_truncated's choice of dim can be checked against in a
new parameter regime.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sqbath import (
    PhotonAddedThermal,
    ReservoirParams,
    TruncationTooSmall,
    evolved_state_moments,
)
from sqbath import fock_oracle

STEP_SWEEP_DIM = 128


def worst_dev(state, res, t, dim, dt=None):
    rho = fock_oracle.integrate(fock_oracle.prepare(state, dim), res, t, dt)
    got = fock_oracle.moments_from_rho(rho)
    ref = evolved_state_moments(state, res, t)
    return max(
        abs(got[(j, k)] - ref[(j, k)]) for j in range(5) for k in range(5 - j)
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gt", type=float, default=1.0, help="scaled time to probe")
    ap.add_argument("--nbar", type=float, default=1.0)
    ap.add_argument("--N", type=float, default=2.0)
    ap.add_argument("--M", type=float, default=1.0)
    args = ap.parse_args()

    state = PhotonAddedThermal(args.nbar)
    res = ReservoirParams(args.N, args.M)
    t = args.gt / res.gamma

    print(f"== step sweep (dim {STEP_SWEEP_DIM}) ==")
    print(f"{'dt':>10} {'worst |dm|':>12} {'seconds':>8}")
    derived = fock_oracle._stable_step(fock_oracle._liouvillian(STEP_SWEEP_DIM, res))
    for dt in (derived, derived / 2.0, derived / 4.0):
        t0 = time.perf_counter()
        dev = worst_dev(state, res, t, STEP_SWEEP_DIM, dt)
        print(f"{dt:>10.3e} {dev:>12.3e} {time.perf_counter() - t0:>8.2f}")

    print("\n== dimension sweep (derived step) ==")
    print(f"{'dim':>10} {'worst |dm|':>12} {'seconds':>8}")
    # LEAKAGE_BOUND rejects dims below 56 at the default state
    for dim in (56, 64, 80, 96):
        t0 = time.perf_counter()
        try:
            dev = worst_dev(state, res, t, dim)
        except TruncationTooSmall as exc:
            print(f"{dim:>10} {type(exc).__name__}")
            continue
        print(f"{dim:>10} {dev:>12.3e} {time.perf_counter() - t0:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
