import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbath.elementwise import E16_WIDTH, emap, format_e16


def formatted(values) -> list[str]:
    x = np.array(values, dtype=float)
    out = np.zeros((len(x), E16_WIDTH), dtype=np.uint8)
    format_e16(x, out)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in out]


def expected(values) -> list[str]:
    return ["%.16e" % (v + 0.0) for v in values]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any double at all, NaNs, infinities and subnormals included
bit_patterns = st.integers(0, 2**64 - 1).map(from_bits)
# a value of either sign in any decade from 1e-320 to 1e308
decade_values = st.builds(
    lambda mantissa, k, negative: (-1.0 if negative else 1.0) * float(f"{mantissa!r}e{k}"),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-320, 308),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(bit_patterns | decade_values, min_size=1, max_size=40))
def test_format_matches_percent_e(values):
    assert formatted(values) == expected(values)


def _powers_and_neighbours():
    for k in range(-8, 19):
        p = float(f"1e{k}")
        yield from (float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, np.inf)))


def _carries():
    """Doubles below a power of ten whose 17 digits round up to it, so
    that their text starts the next decade (1e-14 is one)."""
    for k in range(-323, 309):
        p = float(f"1e{k}")
        for v in (p, float(np.nextafter(p, 0.0))):
            if Decimal(v) < Decimal(10) ** k and ("%.16e" % v).startswith("1.0000000000000000e"):
                yield v


CARRIES = list(_carries())
FIXED = [
    *_powers_and_neighbours(),
    1e-6,  # stored as 9.99...95e-07, the edge of the exact range
    -0.0,
    5e-324,
    math.inf,
    -math.inf,
    math.nan,
    *CARRIES,
]


def test_carry_cases_exist():
    assert CARRIES, "no double rounds up into the next decade"


@pytest.mark.parametrize("value", FIXED, ids=repr)
def test_fixed_cases(value):
    assert formatted([value, -value]) == expected([value, -value])


def test_every_cell_of_a_long_array():
    # longer than one pass of the formatter, every kind of value mixed in
    rng = np.random.default_rng(7)
    x = rng.uniform(-3.0, 3.0, 10_000)
    x[::7] = 0.0
    x[::11] *= 1e-9
    x = np.concatenate((x, FIXED, x))
    assert formatted(x) == expected(x.tolist())


def test_emap_single_array_matches_scalar_calls():
    t = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    got = emap(math.expm1, t)
    assert got.shape == (3, 4)
    assert got.tolist() == [[math.expm1(v) for v in row] for row in t.tolist()]
    assert emap(math.expm1, 0.25) == math.expm1(0.25)


def test_emap_broadcasts_scalars():
    u = np.array([0.1, 0.2, 0.3])
    assert emap(math.hypot, u, 0.5).tolist() == [math.hypot(v, 0.5) for v in u.tolist()]
