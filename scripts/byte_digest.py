#!/usr/bin/env python3
"""Per-family sha256 digests of the `evolve` CSV and `transition-time` text
of seeded random configs.

Config i draws a state of family i mod 6 and a reservoir of kind
(i // 6) mod 4 with perfbench's generators (`random_state`,
`random_reservoir`), on a 21-row grid from 0 to a random stop in
[0.5, 5], with every `outputs` group on. Each config adds its CSV, then its
transition-time line, to its family's digest; a command that raises an
error the CLI reports adds the error's type and message instead. Two
source trees that print the same lines for the same --seed and --configs
rendered every one of those configs to the same bytes.

    python3 scripts/byte_digest.py --seed 3 --configs 6000
"""
import argparse
import hashlib
import io
import os
import random
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import (  # noqa: E402
    RESERVOIR_KINDS,
    STATE_KINDS,
    random_reservoir,
    random_state,
)
from sqbath import cli  # noqa: E402
from sqbath.errors import SqbathError  # noqa: E402


def rendered(doc: dict) -> bytes:
    cfg = cli.parse_config(doc)
    texts = []
    for command in (cli.cmd_evolve, cli.cmd_transition_time):
        buf = io.StringIO()
        try:
            command(cfg, buf)
        except (SqbathError, ArithmeticError) as exc:  # as `main` maps them
            buf.write(f"{type(exc).__name__}: {exc}\n")
        texts.append(buf.getvalue())
    return "".join(texts).encode("ascii")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3, help="generator seed")
    ap.add_argument("--configs", type=int, default=6000, help="configs in all")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    digests = {kind: hashlib.sha256() for kind in STATE_KINDS}
    for i in range(args.configs):
        kind = STATE_KINDS[i % len(STATE_KINDS)]
        rkind = RESERVOIR_KINDS[i // len(STATE_KINDS) % len(RESERVOIR_KINDS)]
        stop = rng.uniform(0.5, 5.0)
        doc = {
            "state": random_state(kind, rng),
            "reservoir": random_reservoir(rkind, rng),
            "time_grid": {"start": 0.0, "stop": stop, "step": stop / 20.0},
        }
        digests[kind].update(rendered(doc))
    for kind, digest in digests.items():
        print(f"{kind:<22} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
