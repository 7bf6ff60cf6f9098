"""Python's ``math`` functions applied to a float or elementwise to arrays.

The analytic observables take a time that is either one float or the
whole time grid as an array. Their transcendentals go through ``emap`` so
that an array evaluation gives, element for element, the very float that
a scalar call gives: NumPy's own ``exp``, ``expm1`` and ``hypot`` kernels
(and its ``**``) can differ from ``math`` in the last bit, and which
kernel runs depends on the machine's SIMD support.
"""
from __future__ import annotations

import math
from typing import Union

import numpy as np

# a time, or a time grid, and what the observables give back for it
FloatOrArray = Union[float, np.ndarray]


def emap(fn, *args):
    """fn(*args) for float arguments; for array arguments, fn applied
    elementwise (scalars broadcast) and collected into a float array."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*args)
    arrays = np.broadcast_arrays(*args)
    shape = arrays[0].shape
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, math.prod(shape)).reshape(shape)
