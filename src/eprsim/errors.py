"""Exception types shared across the package, and the input checks that raise them.

Every domain failure raises one of these so callers (and the CLI) can
distinguish physics degeneracies from programming errors. ``UsageError``
belongs to the command line and stays out of ``__all__``.
"""

import cmath
import numbers

__all__ = [
    "EprSimError",
    "StateError",
    "NormalizationError",
    "CutoffError",
    "UnknownModeError",
    "StateFileError",
    "ZeroCoincidence",
    "ZeroIntensity",
    "DegenerateLO",
    "CatDegenerate",
    "ZeroDenominator",
    "OptimizerShortfall",
]


class EprSimError(Exception):
    """Base class for all domain errors raised by this package."""


class StateError(EprSimError):
    """Invalid state construction (bad tuples, labels, or weights)."""


class NormalizationError(StateError):
    """State norm or mixture weights outside the 1e-9 tolerance."""


class CutoffError(StateError):
    """Total-photon cutoff too small for the requested truncation tail."""


class UnknownModeError(StateError):
    """A mode label that is not part of the state's layout."""


class StateFileError(StateError):
    """JSON state file failed to parse or validate."""


class UsageError(EprSimError):
    """Command-line arguments that do not parse."""


class ZeroCoincidence(EprSimError):
    """Coincidence denominator <(n_a1+n_b1)(n_a2+n_b2)> vanishes."""


class ZeroIntensity(EprSimError):
    """A mean photon number needed for normalization vanishes."""


class DegenerateLO(EprSimError):
    """Optimal local-oscillator amplitudes are undefined (<n1 n2> = 0)."""


class CatDegenerate(EprSimError):
    """Cat-state formulas are singular at this (alpha, phi)."""


class ZeroDenominator(EprSimError):
    """Classical ensemble intensity-product mean vanishes."""


class OptimizerShortfall(EprSimError):
    """Closed-form Bell maximum below the analytic value or beaten by the grid: a bug."""


def _shown(value) -> str:
    """repr of ``value``, also inside a tuple or list; an int of 16 or more
    digits, or a non-integer rational such as a Fraction, rounded by Decimal,
    which takes any int, where repr may refuse one of more than 4300 digits."""
    if isinstance(value, (tuple, list)):
        items = ", ".join(map(_shown, value))
        return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"
    ratio = isinstance(value, numbers.Rational) and not isinstance(value, numbers.Integral)
    if not (ratio or isinstance(value, int) and abs(value) >= 10 ** 15):
        return repr(value)
    from decimal import Decimal  # only an error message needs it; keeps it out of import time
    return f"{Decimal(value.numerator) / Decimal(value.denominator) if ratio else Decimal(value):.3e}"


def _finite(value) -> bool:
    """Whether ``value`` is a number that is finite as a float or complex."""
    try:
        return isinstance(value, numbers.Number) and cmath.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def _nonnegative(value) -> bool:
    """Whether ``value`` is a real number >= 0 that is finite as a float."""
    return isinstance(value, numbers.Real) and _finite(value) and value >= 0.0


def _require_finite(prefix: str = "", /, **values) -> None:
    """Raise ``StateError`` naming the first of ``values`` that is not a finite number."""
    for name, value in values.items():
        if not _finite(value):
            raise StateError(f"{prefix}{name} must be finite, got {_shown(value)}")


def _require_count(name: str, value) -> int:
    """``value`` if it is an integer (not a bool), else a ``StateError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise StateError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)
