"""The one range rule for checked inputs, and its integer predicate.

The package defines no exception types of its own.  Every failure raises a
builtin: ValueError for bad input (a value, a shape, a dimension or a config
structure), ArithmeticError for the ridge's numerical breakdown, and
RuntimeError for a fit or a sampler that gave up and for agent calls made
out of order.
"""

import math
from numbers import Integral


def _is_int(v) -> bool:
    """The one integer predicate for fields, arguments and keys: an integer, and not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _require(name: str, value, low, high=math.inf, *, integer: bool = False, strict: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless low <= value < high (low < value if strict).

    With ``integer`` the value must also pass ``_is_int``.  NaN fails every
    comparison and +inf fails ``value < high``, so neither passes.
    """
    if (integer and not _is_int(value)) or not (low < value if strict else low <= value) or not value < high:
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind} in {'(' if strict else '['}{low:g}, {high:g}), got {value!r}")

