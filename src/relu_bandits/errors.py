"""The one range rule for checked inputs, and its integer and float-range predicates.

The package defines no exception types of its own.  Every failure raises a
builtin: ValueError for bad input (a value, a shape, a dimension or a config
structure), ArithmeticError for the ridge's numerical breakdown, and
RuntimeError for a fit or a sampler that gave up and for agent calls made
out of order.
"""

import math
import sys
from numbers import Integral, Real


def _is_int(v) -> bool:
    """The one integer predicate for fields, arguments and keys: an integer, and not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _fits_float(v) -> bool:
    """Whether v lies within the float range: Python integers are unbounded, and NaN and inf do not."""
    return abs(v) <= sys.float_info.max


def _require(name: str, value, low, high=math.inf, *, integer: bool = False, strict: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless low <= value < high (low < value if strict).

    The value must be a real number, not a bool, within the float range, and
    with ``integer`` it must pass ``_is_int``.  NaN and +inf fail the range.
    """
    number = _is_int(value) if integer else isinstance(value, Real) and not isinstance(value, bool)
    if not (number and _fits_float(value) and (low < value if strict else low <= value) and value < high):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind} in {'(' if strict else '['}{low:g}, {high:g}), got {value!r}")
