"""Exception types shared across the package, and the input checks that raise them.

Every domain failure raises one of these so callers (and the CLI) can
distinguish physics degeneracies from programming errors. ``UsageError``
belongs to the command line and stays out of ``__all__``.
"""

import cmath
import numbers

import numpy as np

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
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, (tuple, list)):
        items = ", ".join(map(_shown, value))
        return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"
    ratio = isinstance(value, numbers.Rational) and not isinstance(value, numbers.Integral)
    if not (ratio or isinstance(value, int) and abs(value) >= 10 ** 15):
        return repr(value)
    from decimal import Decimal  # only an error message needs it; keeps it out of import time
    return f"{Decimal(value.numerator) / Decimal(value.denominator) if ratio else Decimal(value):.3e}"


def _finite(value) -> bool:
    """Whether ``value`` is a number, not a bool, that is finite as a float or complex."""
    try:
        return isinstance(value, numbers.Number) and not isinstance(value, bool) and cmath.isfinite(value)
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


def _require_count(name: str, value, least=None, most=None) -> int:
    """``int(value)`` if it is an integer (not a bool) in ``least`` .. ``most``,
    either bound optional, else a ``StateError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise StateError(f"{name} must be an integer, got {_shown(value)}")
    if not ((least is None or value >= least) and (most is None or value <= most)):
        low, high = ("" if least is None else f"{least} <= "), ("" if most is None else f" <= {most}")
        raise StateError(f"need {low}{name}{high}, got {_shown(value)}")
    return int(value)


def _numbers(values, integral: bool = False):
    """``values`` as an array of integers in their own dtype if ``integral``,
    else of complex128 (not copied if it is one), or None if an entry is not
    such a number, is a bool or passes the float range. Only an object array
    is read entry by entry; numpy upcasts a bool in a list of ints unseen."""
    kind = numbers.Integral if integral else numbers.Number
    try:
        arr = np.asarray(values)
        if not (arr.dtype.kind in ("iu" if integral else "iufc") or arr.dtype.kind == "O" and all(
                isinstance(x, kind) and not isinstance(x, bool) for x in arr.flat)):
            return None
        return arr if integral else arr.astype(np.complex128, copy=False)
    except (TypeError, ValueError, OverflowError):  # ragged rows, or an int past the float range
        return None
