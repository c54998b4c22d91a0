"""Exception hierarchy shared by all engines.

Two broad families matter for callers (and for the CLI exit codes):

* ``ValidationError`` -- the input itself is malformed or outside the
  supported domain (bad operators, impossible probabilities, caps).
  The CLI maps these to exit code 1.
* ``NumericError`` -- the inputs were admissible but the computation
  detected an inconsistency (negative density, truncated grid, ...).
  The CLI maps these to exit code 2.
"""

from __future__ import annotations

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
