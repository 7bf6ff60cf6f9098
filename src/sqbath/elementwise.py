"""Python's ``math`` functions and ``%.16e`` applied to a float or
elementwise to arrays.

The analytic observables take a time that is either one float or the
whole time grid as an array. Their transcendentals go through ``emap`` so
that an array evaluation gives, element for element, the very float that
a scalar call gives: NumPy's own ``exp``, ``expm1`` and ``hypot`` kernels
(and its ``**``) can differ from ``math`` in the last bit, and which
kernel runs depends on the machine's SIMD support.

``format_e16`` is the same promise for text: it writes the bytes of
``"%.16e" % (x + 0.0)`` for every element of an array, with exact
float64 arithmetic instead of a per-cell call.
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import Union

import numpy as np

# a time, or a time grid, and what the observables give back for it
FloatOrArray = Union[float, np.ndarray]


def emap(fn, *args):
    """fn(*args) for float arguments; for array arguments (all of one
    shape), fn applied elementwise, with the float arguments repeated, and
    collected into a float array."""
    if len(args) == 1 and isinstance(args[0], np.ndarray):  # the common case
        a = args[0]
        return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)
    shape = next((a.shape for a in args if isinstance(a, np.ndarray)), None)
    if shape is None:
        return fn(*args)
    columns = []
    for a in args:
        if isinstance(a, np.ndarray):
            if a.shape != shape:
                raise ValueError(f"emap: shapes {a.shape} and {shape} differ")
            columns.append(a.ravel().tolist())
        else:
            columns.append(repeat(a))
    return np.fromiter(map(fn, *columns), float, math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# "%.16e" over an array
#
# A nonzero |x| with decimal exponent E prints as the 17-digit integer
# D = round(|x| 10^(16-E)), ties to even.  For 0 <= 16 - E <= 22 the power
# of ten is an exact double, and Dekker's product (Numer. Math. 18, 224
# (1971)) gives |x| 10^(16-E) exactly as p + err; p >= 1e16 > 2^53 is an
# even integer there, so D = p + rint(err) in integers.  Cells outside that
# range (|x| below 1e-6 or from 1e17 on, and non-finite ones) are left to
# Python's own formatting, one batched list per call.

E16_WIDTH = 24  # bytes of the longest "%.16e" text: -d.dddddddddddddddde-ddd
_CHUNK = 4096  # cells per pass: the temporaries stay in cache
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def _split(a):
    """Veltkamp's split: hi + lo = a exactly, each half of 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
# "0000" ... "9999" and "e-06" ... "e+16", four bytes each, one uint32 a text
_DIGITS4 = (
    (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-6, 17)), np.uint32)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p = fl(a 10^k) and p + err = a 10^k exactly
    (Dekker's product with a Veltkamp split)."""
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _decade_shift(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """+1 where p + err >= 1e17, -1 where it is below 1e16, else 0."""
    above = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    below = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    return above.view(np.int8) - below.view(np.int8)


def format_e16(x: np.ndarray, out: np.ndarray) -> None:
    """Write "%.16e" % (v + 0.0) for every v of the 1-D float array x into
    the rows of out, a (len(x), E16_WIDTH) uint8 array: each row gets its
    text padded with NULs, which may come before it, for the caller to
    strip."""
    for i in range(0, len(x), _CHUNK):
        _format_chunk(x[i:i + _CHUNK], out[i:i + _CHUNK])


def _format_chunk(x: np.ndarray, out: np.ndarray) -> None:
    a = np.abs(x)
    zero = a == 0.0
    vec = (a >= 1e-6) & (a < 1e17)  # nan and inf fail both
    a[~vec] = 1.0  # keeps the arithmetic finite; these cells fall back
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.int64)
    p, err = _scaled(a, 16 - e)
    # log10 can put a value next to a power of ten into the wrong decade.
    # The exact pair decides: 1e-6 is stored as 9.99...95e-07, whose
    # product rounds to p = 1e16 although it lies below.
    shift = _decade_shift(p, err)
    if shift.any():
        e += shift
        vec &= (e >= -6) & (e <= 16)
        np.clip(e, -6, 16, out=e)
        p, err = _scaled(a, 16 - e)
        vec &= _decade_shift(p, err) == 0
    # 17 digits never carry to 10^17 here: no double below a power of ten
    # in this range lies within 5e-18 of it, as rounding up would need
    digits = p.astype(np.int64)
    digits += np.rint(err).astype(np.int64)
    digits[zero] = 0
    e[zero] = 0
    vec |= zero

    if vec.all():
        rows, cell = slice(None), out
    else:
        rows = np.flatnonzero(vec)
        digits, e = digits[rows], e[rows]
        cell = np.empty((len(rows), E16_WIDTH), dtype=np.uint8)
    # digits = lead 10^16 + halves[0] 10^8 + halves[1]
    top = digits // 10**8
    halves = np.empty((len(digits), 2), dtype=np.int64)
    halves[:, 0] = top % 10**8
    halves[:, 1] = digits - top * 10**8
    quads = halves // 10**4
    groups = np.stack((quads, halves - quads * 10**4), axis=-1)
    cell[:, 0] = np.where(x[rows] < 0.0, ord("-"), 0)
    cell[:, 1] = top // 10**8 + ord("0")
    cell[:, 2] = ord(".")
    cell[:, 3:19] = _DIGITS4[groups].view(np.uint8).reshape(len(digits), 16)
    cell[:, 19:23] = _EXPONENTS[e + 6].view(np.uint8).reshape(len(digits), 4)
    cell[:, 23] = 0
    if cell is not out:
        out[rows] = cell
        rest = np.flatnonzero(~vec)
        text = ["%.16e" % (v + 0.0) for v in x[rest].tolist()]
        out[rest] = np.array(text, dtype=f"S{E16_WIDTH}").view(np.uint8).reshape(-1, E16_WIDTH)
