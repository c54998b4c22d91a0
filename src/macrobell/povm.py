"""Single-qubit generalized measurements and their derived scale parameters.

Everything downstream (finite-size statistics, limit laws, Bell
correlators, noise maps) consumes a validated two-dimensional POVM
``{E_a}`` with real outcome labels ``a`` together with a small set of
derived numbers:

* first/second outcome-moment operators ``A = sum_a a E_a`` and
  ``A2 = sum_a a^2 E_a``,
* centering ``mu`` and scale ``tau`` used to normalize the collective
  variable,
* the diagonal spread ``sigma2`` and the excess smearing width
  ``s2 = sigma2/tau^2 - 1``,
* the phase ``phi`` carried by the off-diagonal element of ``A``.

Two centering conventions exist, selected by ``mode``: ``"half"`` uses the
ground-level expectation ``mu = <0|A|0>`` (square-root coarse graining),
``"one"`` uses ``mu = tr(A)/2`` (linear coarse graining).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateOffDiagonalError,
    DuplicateOutcomeError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    ValidationError,
    check_real,
)

__all__ = [
    "SingleParticlePovm",
    "DerivedParams",
    "validate_povm",
    "common_eigenbasis",
    "derive_params",
    "projective_from_bloch",
    "povm_to_json",
    "povm_from_json",
]

HERMITIAN_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-12
COMPLETENESS_ATOL = 1e-12
DEGENERATE_OFFDIAG_ATOL = 1e-14

_I2 = np.eye(2, dtype=complex)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_effect(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (2, 2):
        raise ValidationError(f"effect must be a 2x2 matrix, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SingleParticlePovm:
    """Validated single-qubit POVM: real outcomes with matching effects."""

    outcomes: tuple[float, ...]
    effects: tuple[np.ndarray, ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def effect_for(self, outcome: float) -> np.ndarray:
        try:
            return self.effects[self.outcomes.index(outcome)]
        except ValueError:
            raise ValidationError(f"no effect for outcome {outcome!r}") from None


def validate_povm(outcomes: Sequence[float], effects: Iterable) -> SingleParticlePovm:
    """Check POVM axioms and freeze the data.

    Parameters
    ----------
    outcomes : sequence of float
        Real, finite, pairwise-distinct outcome labels (at least two).
    effects : iterable of 2x2 array-like
        One effect per outcome. Each must be Hermitian to 1e-12 and
        positive semidefinite (smallest eigenvalue >= -1e-12); together
        they must sum to the identity to 1e-12.

    Returns
    -------
    SingleParticlePovm

    Raises
    ------
    NotHermitianError, NotPositiveError, NotCompleteError,
    DuplicateOutcomeError, ValidationError
        The message names the offending outcome index.
    """
    effect_list = [_as_effect(m) for m in effects]
    try:
        out = [check_real(a, f"outcome {i}") for i, a in enumerate(outcomes)]
    except TypeError:
        raise ValidationError(f"outcomes must be a sequence, got {outcomes!r}") from None
    if len(out) != len(effect_list):
        raise ValidationError(
            f"{len(out)} outcomes but {len(effect_list)} effects"
        )
    if len(out) < 2:
        raise ValidationError("need at least 2 outcomes")
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i] == out[j]:
                raise DuplicateOutcomeError(
                    f"outcomes {i} and {j} are both {out[i]!r}"
                )
    for i, e in enumerate(effect_list):
        if not np.all(np.isfinite(e.view(float))):
            raise ValidationError(f"effect {i} has non-finite entries")
        herm_defect = np.max(np.abs(e - e.conj().T))
        if herm_defect > HERMITIAN_ATOL:
            raise NotHermitianError(
                f"effect {i} deviates from Hermiticity by {herm_defect:.3e}"
            )
        min_eig = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min())
        if min_eig < PSD_EIG_FLOOR:
            raise NotPositiveError(
                f"effect {i} has eigenvalue {min_eig:.3e} below {PSD_EIG_FLOOR:.0e}"
            )
    total = sum(effect_list)
    completeness_defect = float(np.max(np.abs(total - _I2)))
    if completeness_defect > COMPLETENESS_ATOL:
        raise NotCompleteError(
            f"effects sum to identity only within {completeness_defect:.3e}"
        )
    return SingleParticlePovm(outcomes=tuple(out), effects=tuple(effect_list))


def common_eigenbasis(povm: SingleParticlePovm) -> tuple[np.ndarray, np.ndarray] | None:
    """One orthonormal basis that diagonalizes every effect, or None.

    The effects commute exactly when such a basis exists: always for two
    outcomes (``E_1 = I - E_0``) and for the three-outcome loss rewrite,
    never for a trine.  The basis comes from ``sum_a a_index * E_a``, whose
    eigenvectors are the common ones; every rotated effect must then be
    diagonal to 1e-12.  With three or more outcomes that sum can be a
    multiple of the identity while the effects are not; only then the
    basis comes from the effect with the widest spectrum (the largest
    traceless part), so every two-outcome POVM keeps its column order.

    Returns
    -------
    (basis, column_probs) or None
        ``basis`` is the unitary whose columns ``u_b`` are the
        eigenvectors; ``column_probs[a, b] = <u_b|E_a|u_b>`` is the
        probability of outcome ``a`` for a particle in ``u_b`` (clipped at
        0, each column summing to 1).
    """
    effects = np.stack(povm.effects)
    labels = np.arange(len(effects), dtype=float)
    spectrum, basis = np.linalg.eigh(np.tensordot(labels, effects, axes=1))
    if spectrum[1] - spectrum[0] <= COMPLETENESS_ATOL:
        _, basis = np.linalg.eigh(effects[np.argmax(np.ptp(np.linalg.eigvalsh(effects), axis=1))])
    rotated = np.einsum("ji,ajk,kl->ail", basis.conj(), effects, basis)
    if np.max(np.abs(rotated[:, 0, 1])) > COMPLETENESS_ATOL:
        return None
    column_probs = np.clip(np.einsum("aii->ai", rotated).real, 0.0, None)
    return basis, column_probs / column_probs.sum(axis=0)


@dataclass(frozen=True)
class DerivedParams:
    """Scale parameters extracted from a POVM for one centering mode.

    Attributes
    ----------
    mu : float
        Centering of the collective variable.
    tau : float
        Scale |<0|A|1>| (or an explicit override).
    sigma2 : float
        Ground-level spread <0|A2|0> - <0|A|0>^2 (never negative).
    phi : float
        Off-diagonal phase; convention depends on ``mode``.
    s2 : float
        Excess smearing width sigma2/tau^2 - 1 (clipped at 0 from below
        when roundoff makes it infinitesimally negative).
    mode : str
        ``"half"`` or ``"one"``.
    """

    mu: float
    tau: float
    sigma2: float
    phi: float
    s2: float
    mode: str


def derive_params(
    povm: SingleParticlePovm,
    mode: str = "half",
    *,
    mu: float | None = None,
    tau: float | None = None,
) -> DerivedParams:
    """Compute the derived scale parameters of ``povm``.

    ``mode="half"`` centers at ``mu = <0|A|0>`` and uses
    ``phi = arg(-<0|A|1>)``; ``mode="one"`` centers at ``mu = tr(A)/2``
    and uses ``phi = arg(<0|A|1>)``.  Every moment is taken of
    ``A - a_min`` (a_min the smallest outcome) and mu adds a_min back, so
    neither the effects' completeness defect nor a relabelling
    a -> u a + v brings in a rounding at the scale of v, except mu's own.

    Explicit ``mu``/``tau`` overrides are for measurements whose natural
    scale degenerates (e.g. a diagonal A, where the off-diagonal element
    vanishes); when ``tau`` is supplied the degeneracy check is skipped.
    A non-finite ``mu``, or a ``tau`` that is not positive and finite, raises
    ``ValidationError``.
    """
    if mode not in ("half", "one"):
        raise ValidationError(f"mode must be 'half' or 'one', got {mode!r}")
    a_min = min(povm.outcomes)
    shifted = np.asarray(povm.outcomes, dtype=float) - a_min
    a_matrix = sum(b * e for b, e in zip(shifted, povm.effects))
    a2_matrix = sum(b * b * e for b, e in zip(shifted, povm.effects))
    a00 = float(a_matrix[0, 0].real)
    a01 = complex(a_matrix[0, 1])

    if mu is None:
        mu = a_min + (a00 if mode == "half" else float(np.trace(a_matrix).real) / 2.0)
    else:
        mu = check_real(mu, "mu override")
    if tau is None:
        if abs(a01) <= DEGENERATE_OFFDIAG_ATOL:
            raise DegenerateOffDiagonalError(
                f"|<0|A|1>| = {abs(a01):.3e} <= {DEGENERATE_OFFDIAG_ATOL:.0e}; "
                "supply mu and tau explicitly"
            )
        tau = abs(a01)
    else:
        tau = check_real(tau, "tau override", 0, open_low=True)

    if abs(a01) > DEGENERATE_OFFDIAG_ATOL:
        z = -a01 if mode == "half" else a01
        # +0.0 collapses a signed-zero imaginary part so the branch cut
        # consistently yields +pi rather than -pi
        phi = math.atan2(z.imag + 0.0, z.real)
    else:
        phi = 0.0

    sigma2 = float(a2_matrix[0, 0].real) - a00 * a00
    # Cauchy-Schwarz guarantees sigma2 >= tau^2 >= 0 for the natural tau;
    # only roundoff can push either below zero.
    sigma2 = max(sigma2, 0.0)
    s2 = sigma2 / (tau * tau) - 1.0
    if -1e-10 < s2 < 0.0:
        s2 = 0.0
    return DerivedParams(mu=mu, tau=tau, sigma2=sigma2, phi=phi, s2=s2, mode=mode)


def projective_from_bloch(theta: float, phi_bloch: float) -> SingleParticlePovm:
    """Projective +-1 measurement along the Bloch direction (theta, phi_bloch)."""
    theta, phi_bloch = check_real(theta, "theta"), check_real(phi_bloch, "phi_bloch")
    n_op = (
        math.sin(theta) * math.cos(phi_bloch) * PAULI_X
        + math.sin(theta) * math.sin(phi_bloch) * PAULI_Y
        + math.cos(theta) * PAULI_Z
    )
    plus = 0.5 * (_I2 + n_op)
    minus = 0.5 * (_I2 - n_op)
    return validate_povm([1.0, -1.0], [plus, minus])


# --------------------------------------------------------------------------
# JSON wire format
#
# {"outcomes": [a0, a1, ...],
#  "effects": [[[[re, im], [re, im]], [[re, im], [re, im]]], ...]}
# --------------------------------------------------------------------------

def povm_to_json(povm: SingleParticlePovm) -> dict:
    """Encode as a plain-JSON dict with [re, im] entry pairs."""
    effects = [
        [[[float(e[r, c].real), float(e[r, c].imag)] for c in (0, 1)] for r in (0, 1)]
        for e in povm.effects
    ]
    return {"outcomes": list(povm.outcomes), "effects": effects}


def povm_from_json(data) -> SingleParticlePovm:
    """Decode and validate a POVM from a JSON dict, string, or file text."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise ValidationError(f"POVM JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("POVM JSON must be an object")
    unknown = set(data) - {"outcomes", "effects"}
    if unknown:
        raise ValidationError(f"unknown POVM JSON keys: {sorted(unknown)}")
    if "outcomes" not in data or "effects" not in data:
        raise ValidationError("POVM JSON needs 'outcomes' and 'effects'")
    if not isinstance(data["effects"], list):
        raise ValidationError("POVM JSON 'effects' must be a list")
    effects = []
    for i, eff in enumerate(data["effects"]):
        try:
            arr = np.asarray(eff, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"effect {i} is not an array of numbers") from None
        if arr.shape != (2, 2, 2):
            raise ValidationError(
                f"effect {i} must be 2x2 entries of [re, im], got shape {arr.shape}"
            )
        effects.append(arr[..., 0] + 1j * arr[..., 1])
    return validate_povm(data["outcomes"], effects)
