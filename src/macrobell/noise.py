"""Robustness layer: particle loss, single-particle channels, classical readout noise.

Three imperfection models and how they deform the limiting statistics:

* loss of particles before detection, which broadens the effective Gaussian
  width of the limit readout; at finite size it is a third outcome ``mu``
  of probability 1 - p (``lossy_povm``);
* depolarizing / dephasing channels acting identically on every particle,
  absorbed into the measurement by their adjoint maps and re-derived as an
  effective (width, phase) pair;
* bounded additive classical noise (uniform or truncated Gaussian) on the
  collective readout itself, which enters the CHSH sweep.

The CHSH sweep maps the violation across (smearing width, noise bound)
cells and reports where it drops to the classical boundary.  The sign of a
noisy readout integrates like the clean readout against S, the sign
convolved with the noise density, which has a closed form (``math.erf``
for the truncated Gaussian); so each cell is one smoothed
``bell.sign_overlap_table``, which convolves the width into S as well,
evaluated by ``bell.chsh_value``, and no density is convolved.  Its widths
``s_grid`` and noise bounds ``eps_grid`` are value lists, checked by
``errors.check_real_array``: nonempty, 1-d, finite and >= 0, in any order;
each width must give a finite band ``limits.real_half_width``.

``bell`` and ``finite_n`` are imported inside the one function that needs
each, so the channel and loss-width routines load neither the Bell nor the
finite-N stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergentWidthError,
    InvalidLossError,
    SingularChannelError,
    ValidationError,
    check_real,
    check_real_array,
)
from .povm import DerivedParams, SingleParticlePovm, derive_params, validate_povm

#: Width values above this raise DivergentWidth instead of being returned.
WIDTH_SQUARED_CAP = 1e12

_SHAPES = ("uniform", "truncated_gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Imperfection parameters: detection probability and channel strengths."""

    loss_p: float = 1.0
    depol_lambda: float = 0.0
    dephase_lambda: float = 0.0

    def __post_init__(self):
        check_real(self.loss_p, "loss_p", 0, 1, open_low=True, error=InvalidLossError)
        for name in ("depol_lambda", "dephase_lambda"):
            check_real(getattr(self, name), name, 0, 1)

    @property
    def is_singular(self) -> bool:
        """True where the channel map to limit parameters breaks down."""
        return self.depol_lambda == 1.0 or self.dephase_lambda == 0.5


def loss_width(params: DerivedParams, p: float) -> float:
    """Squared effective width after detecting each particle with probability p.

    Closed form sigma^2 / (p tau^2) - 1: the detected sum has variance
    p sigma^2 per particle and is rescaled by p tau (the intensity of
    ``lossy_povm``).  Arranged so that p = 1 returns ``params.s2``
    bit-exactly.  The expression has a simple pole at p = 0; values above
    ``WIDTH_SQUARED_CAP`` raise DivergentWidth.
    """
    p = check_real(p, "detection probability p", 0, 1, open_low=True, error=InvalidLossError)
    value = params.s2 + params.sigma2 * (1.0 / p - 1.0) / params.tau**2
    if value > WIDTH_SQUARED_CAP:
        raise DivergentWidthError(
            f"effective squared width {value:.3e} exceeds {WIDTH_SQUARED_CAP:.0e}"
        )
    return float(value)


def lossy_povm(povm: SingleParticlePovm, params: DerivedParams,
               p: float) -> tuple[SingleParticlePovm, DerivedParams]:
    """Three-outcome rewrite of per-particle loss: a missed particle scores mu.

    The effects become ``p E_a`` plus ``(1 - p) I`` for outcome ``mu``
    (merged into its effect if ``mu`` is an outcome); ``tau`` becomes ``p tau``.
    """
    p = check_real(p, "detection probability p", 0, 1, open_low=True, error=InvalidLossError)
    missed = (1.0 - p) * np.eye(2, dtype=complex)
    outcomes, effects = list(povm.outcomes), [p * e for e in povm.effects]
    if params.mu in outcomes:
        effects[outcomes.index(params.mu)] += missed
    else:
        outcomes, effects = [params.mu, *outcomes], [missed, *effects]
    loss_povm = validate_povm(outcomes, effects)
    return loss_povm, derive_params(loss_povm, mode=params.mode, mu=params.mu, tau=p * params.tau)


def loss_char_fn_finite(state, povm: SingleParticlePovm, params: DerivedParams,
                        p: float, t):
    """Exact characteristic function of the lossy rescaled intensity.

    Each particle independently reaches the detector with probability p; the
    intensity counts received outcomes only and is rescaled by p tau sqrt(N).
    This is ``char_fn_finite`` at alpha = 1/2 on ``lossy_povm``.
    """
    from .finite_n import char_fn_finite

    return char_fn_finite(state, *lossy_povm(povm, params, p), 0.5, t)


def depolarize_povm(povm: SingleParticlePovm, lam: float) -> SingleParticlePovm:
    """Adjoint depolarizing map on every effect: (1-l) E + (l/2) tr(E) I."""
    lam = check_real(lam, "depolarizing strength", 0, 1)
    eye = np.eye(2, dtype=complex)
    effects = [
        (1.0 - lam) * e + 0.5 * lam * np.trace(e) * eye for e in povm.effects
    ]
    return validate_povm(povm.outcomes, effects)


def dephase_povm(povm: SingleParticlePovm, lam: float) -> SingleParticlePovm:
    """Adjoint dephasing map on every effect: (1-l) E + l Z E Z."""
    lam = check_real(lam, "dephasing strength", 0, 1)
    z = np.diag([1.0, -1.0]).astype(complex)
    effects = [(1.0 - lam) * e + lam * (z @ e @ z) for e in povm.effects]
    return validate_povm(povm.outcomes, effects)


class NoisyLimitParams(NamedTuple):
    s_squared: float
    phi: float


def noisy_limit_params(povm: SingleParticlePovm, noise: NoiseSpec,
                       mode: str = "half") -> NoisyLimitParams:
    """Effective (squared width, phase) of the limit readout under noise.

    The channels act on the measurement through their adjoints (the maps
    commute, so the order is immaterial); the transformed effects are then
    re-derived, and particle loss finally rescales the width.  Classical
    readout noise does not enter: it is a convolution, not a width.
    """
    if noise.is_singular:
        raise SingularChannelError("depolarizing at strength 1 or dephasing at strength 1/2 "
                                   "leaves no signal")
    transformed = povm
    if noise.depol_lambda > 0.0:
        transformed = depolarize_povm(transformed, noise.depol_lambda)
    if noise.dephase_lambda > 0.0:
        transformed = dephase_povm(transformed, noise.dephase_lambda)
    params = derive_params(transformed, mode=mode)
    s_squared = params.s2 if noise.loss_p == 1.0 else loss_width(params, noise.loss_p)
    return NoisyLimitParams(s_squared=float(s_squared), phi=float(params.phi))


def _smoothed_sign(shape: str, eps: float):
    """sign convolved with the noise density, on [-eps, eps], where it is odd;
    it is 1 beyond eps and -1 below -eps."""
    if shape == "uniform":
        return lambda x: x / eps
    # erf(x / (sigma sqrt 2)) / erf(sqrt 2) with sigma = eps / 2, on a scalar
    # or on the quadrature nodes
    erf = np.vectorize(math.erf, otypes=[float])
    return lambda x: erf(x * math.sqrt(2.0) / eps) / math.erf(math.sqrt(2.0))


class SweepResult(NamedTuple):
    s_grid: np.ndarray
    eps_grid: np.ndarray
    chsh: np.ndarray          # shape (len(eps_grid), len(s_grid))
    angles: tuple[float, float, float, float]
    clean_value: float
    threshold_s: np.ndarray   # per eps row: s where CHSH crosses 2 (nan if none)


def noisy_chsh_sweep(schmidt_coeffs, s_grid, eps_grid,
                     shape: str = "uniform") -> SweepResult:
    """CHSH across a grid of smearing widths and classical noise bounds.

    Analyzer angles are fixed at the clean-point optimum.  Within each cell
    the joint density factorizes over the level-pair kernels, so the
    sign-binned correlator reduces exactly to the squared table of noisy
    kernel sign-integrals; the sweep evaluates that reduction rather than
    building the full 2-d density per cell; the (0, 0) cell equals
    ``clean_value`` bit for bit.  Per noise row the result records where
    the value crosses the classical boundary 2.  The result holds the value
    lists ``s_grid`` and ``eps_grid`` as read-only float arrays.
    """
    from .bell import BellConfig, chsh_value, optimize_chsh, sign_overlap_table
    from .limits import real_half_width

    if shape not in _SHAPES:
        raise ValidationError(f"shape must be one of {_SHAPES}, got {shape!r}")
    s_grid = check_real_array(s_grid, "s_grid", 0, ndim=1)
    eps_grid = check_real_array(eps_grid, "eps_grid", 0, ndim=1)
    real_half_width(BellConfig(schmidt_coeffs).k_max, float(s_grid.max()), "s_grid")

    best = optimize_chsh(schmidt_coeffs)
    config = BellConfig(schmidt_coeffs, *best.angles)

    def cell(s: float, eps: float) -> float:
        ramp = _smoothed_sign(shape, eps)
        return chsh_value(config, sign_overlap_table(config.k_max, s, eps, ramp))

    chsh = np.array([[cell(s, eps) for s in s_grid.tolist()] for eps in eps_grid.tolist()])

    threshold = np.full(eps_grid.size, np.nan)
    for i in range(eps_grid.size):
        row = chsh[i]
        for j in range(s_grid.size - 1):
            lo, hi = row[j + 1], row[j]
            if (hi - 2.0) * (lo - 2.0) <= 0.0 and hi != lo:
                threshold[i] = s_grid[j] + (hi - 2.0) / (hi - lo) * (s_grid[j + 1] - s_grid[j])
                break
    return SweepResult(s_grid=s_grid, eps_grid=eps_grid, chsh=chsh,
                       angles=best.angles, clean_value=best.value,
                       threshold_s=threshold)
