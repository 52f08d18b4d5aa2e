"""Exception types shared across the package, and the one check of a numeric setting."""

import math
import numbers

__all__ = [
    "HabdfError",
    "ContractViolationError",
    "DegenerateGeometryError",
    "InsufficientDetectorsError",
    "ConfigError",
    "RecordFormatError",
]


class HabdfError(Exception):
    """Base class for errors raised by this package."""


class ContractViolationError(HabdfError, ValueError):
    """An argument violates a documented precondition (shape, sign, finiteness). ``names``
    holds the arguments the refusal blames, in its message's order; ``detector`` is the
    position of the one detector whose entry a loop over detectors refused, else None."""

    def __init__(self, message: str, names: tuple = (), detector: int | None = None):
        super().__init__(message)
        self.names, self.detector = names, detector


class DegenerateGeometryError(HabdfError):
    """A covariance needed for an inverse is singular or numerically hopeless.

    Carries the offending condition-number estimate in ``condition``.
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class InsufficientDetectorsError(HabdfError, ValueError):
    """Fewer detectors than majority voting can support (minimum is 3)."""


class ConfigError(HabdfError, ValueError):
    """A config file or override is malformed; message carries file/line/key."""


class RecordFormatError(HabdfError, ValueError):
    """A CSV record file is malformed; message carries path and row number."""


# Each rule, in the words its refusal uses. Only "> 0" passes inf; none passes NaN.
_RULES = {
    "finite": lambda v: abs(v) < math.inf,
    "> 0 and finite": lambda v: 0 < v < math.inf,
    ">= 0 and finite": lambda v: 0 <= v < math.inf,
    "> 0": lambda v: v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "an integer": lambda v: isinstance(v, numbers.Integral),
    "an integer >= 0": lambda v: isinstance(v, numbers.Integral) and v >= 0,
    "an integer >= 1": lambda v: isinstance(v, numbers.Integral) and v >= 1,
}


def _setting(name: str, value, rule: str, detector: int | None = None):
    """``value`` as given if it is a real number keeping ``rule``, a key of _RULES (an integer
    rule takes Python and numpy ints, not ``2.0``); else, a str, None or NaN too, raises
    ContractViolationError "<name> must be <rule>, got <value>" blaming name at ``detector``."""
    if not (isinstance(value, numbers.Real) and _RULES[rule](value)):
        shown = value if isinstance(value, numbers.Real) else repr(value)
        raise ContractViolationError(f"{name} must be {rule}, got {shown}", (name,), detector)
    return value
