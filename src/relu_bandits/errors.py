"""Exception types shared across the package, and the one range rule for checked inputs."""

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


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class UnsupportedDimensionError(ValueError):
    """The requested dimension is outside an operation's documented range."""


class BoundVacuousError(ArithmeticError):
    """A closed-form bound is vacuous at these inputs (nonpositive denominator)."""


class NumericError(ArithmeticError):
    """Numerical breakdown (e.g. a determinant that should be positive is not)."""


class FitError(RuntimeError):
    """Every optimizer restart was discarded; no estimate is available."""


class ProtocolError(RuntimeError):
    """Agent select/observe calls arrived out of order."""


class GenerationError(RuntimeError):
    """Instance rejection sampling exhausted its budget."""


class ConfigError(ValueError):
    """A configuration file or block failed validation."""
