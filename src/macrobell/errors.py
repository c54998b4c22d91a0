"""Exception hierarchy shared by all engines.

Two broad families matter for callers (and for the CLI exit codes):

* ``ValidationError`` -- the input itself is malformed or outside the
  supported domain (bad operators, impossible probabilities, caps).
  The CLI maps these to exit code 1.
* ``NumericError`` -- the inputs were admissible but the computation
  detected an inconsistency (negative density, truncated grid, ...).
  The CLI maps these to exit code 2.

The input checks every engine shares live here too, one per kind of input:
``check_integer`` (counts, levels, orders, seeds), ``check_real`` (finite
angles, widths, ratios, probabilities) with its elementwise form
``check_real_array`` (frequencies), ``check_alpha`` and
``check_unit_vector``.
"""

from __future__ import annotations

import math
import numbers

UNIT_NORM_ATOL = 1e-12


class MacrobellError(Exception):
    """Base class for every error raised by this package."""

    #: short machine-readable identifier, used by the CLI error JSON
    code = "error"


class ValidationError(MacrobellError, ValueError):
    """Malformed or out-of-domain input."""

    code = "validation"


class NumericError(MacrobellError, ArithmeticError):
    """Numerically detected inconsistency in an otherwise valid run."""

    code = "numeric"


# --------------------------------------------------------------------------
# operator-level validation
# --------------------------------------------------------------------------

class NotHermitianError(ValidationError):
    code = "not_hermitian"


class NotPositiveError(ValidationError):
    code = "not_positive"


class NotCompleteError(ValidationError):
    code = "not_complete"


class DuplicateOutcomeError(ValidationError):
    code = "duplicate_outcome"


class DegenerateOffDiagonalError(ValidationError):
    """Off-diagonal matrix element too small to define a scale/phase."""

    code = "degenerate_off_diagonal"


# --------------------------------------------------------------------------
# domain caps and lattice structure
# --------------------------------------------------------------------------

class OffLatticeError(ValidationError):
    """Outcome values do not live on a common arithmetic lattice."""

    code = "off_lattice"


class CapExceededError(ValidationError):
    """A size cap (particle number, lattice points, dimension) was hit."""

    code = "cap_exceeded"


class InvalidLossError(ValidationError):
    """Transmission probability outside (0, 1]."""

    code = "invalid_loss"


class SingularChannelError(ValidationError):
    """Channel strength at which the derived scale collapses to zero."""

    code = "singular_channel"


# --------------------------------------------------------------------------
# numeric failures
# --------------------------------------------------------------------------

class GridTooNarrowError(NumericError):
    """Requested grid leaves non-negligible mass outside its endpoints."""

    code = "grid_too_narrow"


class NegativeDensityError(NumericError):
    """A density/probability came out negative beyond roundoff."""

    code = "negative_density"


class DivergentWidthError(NumericError):
    """Broadened width grew past any usable magnitude."""

    code = "divergent_width"


def check_alpha(alpha) -> float:
    """The coarse-graining exponent as a float: 0.5 or 1.0, nothing else."""
    try:
        a = float(alpha)
    except (TypeError, ValueError):
        a = None
    if a not in (0.5, 1.0):
        raise ValidationError(f"alpha must be 0.5 or 1.0, got {alpha!r}")
    return a


def _range_text(low, high, open_low: bool = False) -> str:
    """' >= low', ' <= high', ' in [low, high]' or '' for the error messages."""
    if high is None:
        return "" if low is None else f" {'>' if open_low else '>='} {low}"
    if low is None:
        return f" <= {high}"
    return f" in {'(' if open_low else '['}{low}, {high}]"


def check_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int: a ``numbers.Integral`` other than a bool, in
    [low, high]; a None bound is no bound.  The message names ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (low is not None and value < low) or (high is not None and value > high)):
        raise ValidationError(f"{name} must be an integer{_range_text(low, high)}, got {value!r}")
    return int(value)


def check_real(value, name: str, low: float | None = None, high: float | None = None, *,
               open_low: bool = False, error: type[ValidationError] = ValidationError) -> float:
    """``value`` as a float: a finite ``numbers.Real`` other than a bool, in
    [low, high], or in (low, high] with ``open_low``; a None bound is no
    bound.  Raises ``error`` (a ValidationError) naming ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        x = math.inf
    if (not math.isfinite(x) or (low is not None and (x <= low if open_low else x < low))
            or (high is not None and x > high)):
        raise error(f"{name} must be a finite scalar{_range_text(low, high, open_low)}, "
                    f"got {value!r}")
    return x


def check_real_array(values, name: str):
    """``values`` (a scalar or an array) as a float array of finite reals,
    without bools; raises ValidationError naming ``name``."""
    import numpy as np  # on call, as in check_unit_vector

    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be a finite scalar or an array of them, "
                              f"got {(values if arr.ndim == 0 else arr)!r}")
    return arr.astype(float)


def check_unit_vector(coeffs, ndim: int = 1):
    """Coefficients as a nonempty, finite, unit-norm complex ``ndim``-d array."""
    import numpy as np  # on call: the CLI imports this module before pinning BLAS threads

    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != ndim or c.size < 1:
        raise ValidationError(f"coefficients must form a nonempty {ndim}-d array")
    if not np.all(np.isfinite(c)):
        raise ValidationError("coefficients must be finite")
    norm = float(np.linalg.norm(c))
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise ValidationError(f"coefficients have norm {norm!r}, expected 1")
    return c
