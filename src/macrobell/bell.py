"""Bipartite sign-binned correlations and the CHSH combination.

A Schmidt-diagonal pair state sum_k c_k |k>|k>, read out party-wise through
the coarse-grained collective variable and binned by sign, has correlators
that reduce to a bilinear form in a fixed table of sign-weighted level
overlaps: one trigonometric polynomial of the angle sum, with closed-form
derivatives, that every CHSH number evaluates at the four pair sums.  This
module builds that table, evaluates and maximizes the CHSH combination over
the four analyzer angles, and cross-checks the full coarse-graining branch
against its separable hidden-variable construction.

The clean sign table is a closed form at every level count.  A smoothed
table contracts the Hermite rows of ``limits.level_rows`` against half-line
``limits.gauss_legendre`` weights in one matrix product, and the rotor
joints integrate by the trapezoid rule, so the module needs numpy alone.
Every grid a caller passes goes through ``errors.check_grid`` (the rotor
grids inside [0, ``limits.ROTOR_ANGLE_MAX``]); ``SignOverlapTable`` and
``JointGridDensity`` hold their finite arrays read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CapExceededError, ValidationError, check_grid, check_integer, check_real,
                     check_real_array, check_unit_vector)
from .limits import ROTOR_ANGLE_MAX, ROW_BLOCK_FLOATS, gauss_legendre, level_rows, real_half_width

#: Largest Schmidt rank accepted by the bipartite routines.
MAX_SCHMIDT_RANK = 16

#: Number of coarse-search points per angle (step pi/36).
COARSE_GRID_POINTS = 72

#: Convergence tolerance (in CHSH value) of the local refinement.
REFINE_VALUE_TOL = 1e-10

#: Coarse-scan values within this of the maximum count as ties, so that
#: rounding noise in the sign table cannot reorder them.
SCAN_TIE_TOL = 1e-12

#: Correlator pairs, in the order they enter the CHSH combination.
PAIR_NAMES = ("AB", "AB'", "A'B", "A'B'")

# Row p picks pair p's angle sum from (phi_a, phi_a', phi_b, phi_b').
_PAIR_SUMS = np.array([[1.0, 0.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, 1.0],
                       [0.0, 1.0, 1.0, 0.0],
                       [0.0, 1.0, 0.0, 1.0]])
_CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class SignOverlapTable:
    """Level overlaps against the sign function or a smoothed sign.

    ``values[k, l]`` holds the integral of sign(x) (or of a smoothed odd
    step) times the level-(k, l) kernel.  Entries with k + l even vanish by
    parity and are exactly zero.  ``values`` must be a finite square table,
    and is held as a read-only copy.
    """

    values: np.ndarray

    def __post_init__(self):
        v = check_real_array(self.values, "values", ndim=2)
        if v.shape[0] != v.shape[1]:
            raise ValidationError(f"values must be a square table, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.shape[0] - 1


def _clean_sign_table(k_max: int) -> np.ndarray:
    # psi_k'' = (x^2/4 - k - 1/2) psi_k, so for odd k + l the half-line integral of
    # psi_k psi_l is the Wronskian (psi_k psi_l' - psi_l psi_k')(0) / (l - k), where
    # one product is exactly 0: T_kl = 2 psi_k(0) psi_l'(0) / (l - k) at even k.
    k = np.arange(k_max + 1)
    even, psi = k[2::2], np.zeros(k_max + 1)
    psi[::2] = (2.0 * math.pi) ** -0.25 * np.cumprod(np.r_[1.0, -np.sqrt((even - 1.0) / even)])
    slope = np.r_[0.0, np.sqrt(k[1:]) * psi[:-1]]
    gap = k - k[:, None]
    half = np.divide(2.0 * np.outer(psi, slope), gap, out=np.zeros(gap.shape), where=gap % 2 == 1)
    return half + half.T


def _half_line_overlaps(k_max: int, width: float, edge: float, ramp,
                        nodes: int | None = None) -> np.ndarray:
    # K_kl(x) S(x) with S odd is even iff k + l is odd: there the table is twice the
    # half-line integral, elsewhere exactly 0.  The line is the levels' band, split where
    # S reaches 1; each piece takes max(600, 2 k_max) nodes (600 held to 500 levels).
    half_width = real_half_width(k_max, width)
    t, w = gauss_legendre(nodes or max(600, 2 * k_max))
    knot = min(edge, half_width)
    table = np.zeros((k_max + 1, k_max + 1))
    block = max(1, ROW_BLOCK_FLOATS // ((k_max + 1) * (k_max + 1 if width > 0.0 else 1)))
    for lo, hi, smooth in ((0.0, knot, ramp), (knot, half_width, None)):
        if hi > lo:
            x = lo + 0.5 * (hi - lo) * (t + 1.0)
            weights = 0.5 * (hi - lo) * w * (1.0 if smooth is None else smooth(x))
            for i in range(0, x.size, block):
                rows = level_rows(k_max, x[i:i + block], width)  # (d, Hermite nodes, points)
                # sum_p K_kl(x_p) w_p sums row_k[j, p] w_p row_l[j, p] over (node j, point p)
                table += 2.0 * ((rows * weights[i:i + block]).reshape(k_max + 1, -1)
                                @ rows.reshape(k_max + 1, -1).T)
    table[::2, ::2] = table[1::2, 1::2] = 0.0
    return table


def sign_overlap_table(k_max: int, width: float = 0.0, edge: float = 0.0,
                       ramp=None) -> SignOverlapTable:
    """Overlaps of the width-smeared level kernels up to ``k_max`` against an
    odd step S.

    S is odd, equals ``ramp(x)`` on [0, edge] and 1 beyond; for the sign
    convolved with a noise density on [-edge, edge], this is the sign
    integral of each kernel after that noise.  At width = edge = 0 it is the
    clean sign table, a closed form with no level cap.  Otherwise
    max(600, 2 k_max) Gauss-Legendre nodes per piece integrate the rows of
    ``level_rows`` (which caps the levels at width > 0) over the positive
    half of the levels' band ``limits.real_half_width``.
    """
    k_max = check_integer(k_max, "k_max", 0)
    width, edge = check_real(width, "width", 0), check_real(edge, "edge", 0)
    if width == 0.0 and edge == 0.0:
        return SignOverlapTable(_clean_sign_table(k_max))
    return SignOverlapTable(_half_line_overlaps(k_max, width, edge, ramp))


@dataclass(frozen=True)
class BellConfig:
    """Schmidt coefficients plus the four analyzer angles.

    ``phi_a``/``phi_a_prime`` are the two settings on the first party,
    ``phi_b``/``phi_b_prime`` on the second.
    """

    schmidt_coeffs: np.ndarray
    phi_a: float = 0.0
    phi_a_prime: float = 0.0
    phi_b: float = 0.0
    phi_b_prime: float = 0.0

    def __post_init__(self):
        c = check_unit_vector(self.schmidt_coeffs)
        if c.size > MAX_SCHMIDT_RANK:
            raise CapExceededError(
                f"Schmidt rank {c.size} exceeds the supported maximum {MAX_SCHMIDT_RANK}")
        for name in ("phi_a", "phi_a_prime", "phi_b", "phi_b_prime"):
            check_real(getattr(self, name), name)
        object.__setattr__(self, "schmidt_coeffs", c)

    @property
    def k_max(self) -> int:
        return self.schmidt_coeffs.size - 1

    @property
    def angles(self) -> np.ndarray:
        return np.array([self.phi_a, self.phi_a_prime, self.phi_b, self.phi_b_prime])


def _pair_correlation(coeffs: np.ndarray, squared_table: np.ndarray, phase_sum,
                      order: int = 0) -> np.ndarray:
    """Correlator, or its ``order``-th derivative, in the angle sum (vectorized over it)."""
    d = coeffs.size
    offsets = (np.arange(d)[None, :] - np.arange(d)[:, None]).ravel()
    cross = (np.outer(np.conj(coeffs), coeffs) * squared_table[:d, :d]).ravel()
    cross = cross * (1j * offsets) ** order
    phases = np.exp(1j * np.asarray(phase_sum, dtype=float)[..., None] * offsets)
    return np.real(phases @ cross)


def _squared_table(config: BellConfig, table: SignOverlapTable | None) -> np.ndarray:
    """Squared entries of ``table``, by default the sign table of the state's levels."""
    if table is None:
        table = sign_overlap_table(config.k_max)
    if table.k_max < config.k_max:
        raise ValidationError(f"the overlap table holds levels up to {table.k_max}, "
                              f"the state up to {config.k_max}")
    return table.values**2


def _chsh_terms(coeffs: np.ndarray, squared_table: np.ndarray, angles,
                order: int = 0) -> np.ndarray:
    """The four signed CHSH terms, or their ``order``-th derivatives in the pair sums."""
    return _CHSH_SIGNS * _pair_correlation(coeffs, squared_table, _PAIR_SUMS @ angles, order)


def correlator(config: BellConfig, which_pair: str = "AB",
               table: SignOverlapTable | None = None) -> float:
    """Sign-binned correlator for one pair of analyzer settings.

    Only depends on the angles through their sum.  ``table`` overrides the
    level-overlap table: a smoothed table gives the correlator of a smeared,
    noisy readout, and a synthetic one serves sanity harnesses.
    """
    if which_pair not in PAIR_NAMES:
        raise ValidationError(
            f"unknown correlator pair {which_pair!r}; expected one of {PAIR_NAMES}")
    phase_sum = _PAIR_SUMS[PAIR_NAMES.index(which_pair)] @ config.angles
    return float(_pair_correlation(config.schmidt_coeffs, _squared_table(config, table),
                                   phase_sum))


def chsh_value(config: BellConfig, table: SignOverlapTable | None = None) -> float:
    """CHSH combination <AB> + <AB'> + <A'B> - <A'B'>."""
    return float(_chsh_terms(config.schmidt_coeffs, _squared_table(config, table),
                             config.angles).sum())


class OptimizeResult(NamedTuple):
    angles: tuple[float, float, float, float]
    value: float


def _first_near_max(values) -> int:
    """First index of the 1-d ``values`` within ``SCAN_TIE_TOL`` of their maximum."""
    return int(np.argmax(values >= values.max() - SCAN_TIE_TOL))


def optimize_chsh(schmidt_coeffs) -> OptimizeResult:
    """Maximize the CHSH value over the four analyzer angles.

    Deterministic: a coarse scan on the pi/36 grid (exploiting that each
    correlator depends only on an angle sum, so the 4-d scan reduces to
    separable 1-d maximizations) picks the lexicographically smallest grid
    point within ``SCAN_TIE_TOL`` of the maximum: first (a, a') over the
    best totals, then b and b' for that pair.  Newton steps on the
    closed-form gradient and Hessian refine it, ascending: each drops the gauge null direction (a, a' up; b, b' down,
    along which the angles stay free) and takes the other curvatures by
    modulus, halved until the value grows, until a step gains less than
    ``REFINE_VALUE_TOL``.
    """
    coeffs = BellConfig(schmidt_coeffs).schmidt_coeffs
    squared = sign_overlap_table(coeffs.size - 1).values**2

    n = COARSE_GRID_POINTS
    step = 2.0 * np.pi / n
    grid_values = _pair_correlation(coeffs, squared, step * np.arange(n))

    # shifted[j, i] = g(theta_j + theta_i) on the periodic grid
    shifted = grid_values[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n]

    plus = shifted[:, None, :] + shifted[None, :, :]     # [ia, iap, ib]
    minus = shifted[:, None, :] - shifted[None, :, :]    # [ia, iap, ibp]
    totals = plus.max(axis=2) + minus.max(axis=2)
    ia, iap = np.unravel_index(_first_near_max(totals.ravel()), totals.shape)
    angles = step * np.array([ia, iap, _first_near_max(plus[ia, iap]),
                              _first_near_max(minus[ia, iap])], dtype=float)
    value, gain = _chsh_terms(coeffs, squared, angles).sum(), math.inf
    while gain >= REFINE_VALUE_TOL:
        gradient = _PAIR_SUMS.T @ _chsh_terms(coeffs, squared, angles, 1)
        curvature, axes = np.linalg.eigh(
            _PAIR_SUMS.T @ (_chsh_terms(coeffs, squared, angles, 2)[:, None] * _PAIR_SUMS))
        # Drop the gauge axis, which _PAIR_SUMS maps to zero, and every
        # numerically flat one (the matrix_rank cut; all four at rank 1).
        keep = np.abs(curvature) > 4.0 * np.finfo(float).eps * np.abs(curvature).max()
        keep[np.argmin(np.linalg.norm(_PAIR_SUMS @ axes, axis=0))] = False
        move = axes[:, keep] @ ((gradient @ axes[:, keep]) / np.abs(curvature[keep]))
        # Halve until the step gains or its first-order gain is below the tolerance.
        trial = _chsh_terms(coeffs, squared, angles + move).sum()
        while trial <= value and gradient @ move >= REFINE_VALUE_TOL:
            move = move / 2.0
            trial = _chsh_terms(coeffs, squared, angles + move).sum()
        gain = trial - value
        if gain > 0.0:
            angles, value = angles + move, trial

    return OptimizeResult(angles=tuple(float(a) for a in angles), value=float(value))


@dataclass(frozen=True)
class JointGridDensity:
    """Finite joint probability density sampled on a rectangular grid of two
    strictly increasing axes, such as the rotor angle pairs of
    ``local_model_alpha_one``; all three arrays are read-only."""

    x_grid: np.ndarray
    y_grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        gx, gy = check_grid(self.x_grid, "x_grid"), check_grid(self.y_grid, "y_grid")
        d = check_real_array(self.density, "density")
        if d.shape != (gx.size, gy.size):
            raise ValidationError("density shape must be (len(x_grid), len(y_grid))")
        object.__setattr__(self, "x_grid", gx)
        object.__setattr__(self, "y_grid", gy)
        object.__setattr__(self, "density", d)

    def integral(self) -> float:
        """Trapezoid integral; on a uniform rotor grid it is exact, as the
        joint is an even trigonometric polynomial in each angle."""
        return float(np.trapezoid(np.trapezoid(self.density, self.y_grid, axis=1), self.x_grid))


class LocalModelResult(NamedTuple):
    quantum_joint: JointGridDensity
    lhv_joint: JointGridDensity
    max_discrepancy: float


def local_model_alpha_one(c_kl, phi_a: float, phi_b: float,
                          theta_grids=None) -> LocalModelResult:
    """Angle-pair joint at full coarse graining, by two constructions.

    The quantum route squares the transition amplitudes of the state with
    the setting phases folded into its coefficients.  The hidden-variable
    route distributes a pair of latent angles with density
    |sum_kl c_kl exp(-i(k l1 + l l2))|^2 / (2 pi)^2 and maps them through
    the deterministic response cos(latent + setting), i.e. it folds the
    settings into the evaluation points and pushes the four sign images of
    each grid point forward.  Both are the same double integral; evaluating
    them as two different discretizations and returning the maximum
    pointwise discrepancy is the consistency check.  ``theta_grids`` is a
    pair of strictly increasing grids inside [0, ``limits.ROTOR_ANGLE_MAX``].
    """
    c = check_unit_vector(c_kl, ndim=2)
    phi_a, phi_b = check_real(phi_a, "phi_a"), check_real(phi_b, "phi_b")
    if max(c.shape) > MAX_SCHMIDT_RANK:
        raise CapExceededError(f"level count {max(c.shape)} exceeds the supported maximum "
                               f"{MAX_SCHMIDT_RANK}")
    if theta_grids is None:
        theta_grids = (np.linspace(0.0, np.pi, 201), np.linspace(0.0, np.pi, 201))
    try:
        theta_a, theta_b = theta_grids
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValidationError(
            f"theta_grids must be a pair of grids, got {theta_grids!r}") from None
    theta_a, theta_b = (check_grid(grid, "theta_grids", 0.0, ROTOR_ANGLE_MAX)
                        for grid in (theta_a, theta_b))

    ka, kb = (np.arange(d) for d in c.shape)

    # Quantum route: complex amplitude matrices, setting phases on the state.
    b = c * np.exp(1j * (ka[:, None] * phi_a + kb[None, :] * phi_b))
    quantum = np.zeros((theta_a.size, theta_b.size))
    for sa in (1.0, -1.0):
        ea = np.exp(1j * sa * np.outer(theta_a, ka))
        for sb in (1.0, -1.0):
            eb = np.exp(1j * sb * np.outer(kb, theta_b))
            quantum += np.abs(ea @ b @ eb) ** 2
    quantum /= (2.0 * np.pi) ** 2

    # Hidden-variable route: the latent density at the four pushforward
    # images lambda = s theta - phi of each (theta_a, theta_b); the sum over
    # (k, l) separates into one phase matrix per axis.
    lhv = np.zeros_like(quantum)
    for sa in (1.0, -1.0):
        ea = np.exp(-1j * np.outer(sa * theta_a - phi_a, ka))
        for sb in (1.0, -1.0):
            eb = np.exp(-1j * np.outer(kb, sb * theta_b - phi_b))
            lhv += np.abs(ea @ c @ eb) ** 2
    lhv /= (2.0 * np.pi) ** 2

    discrepancy = float(np.max(np.abs(quantum - lhv)))
    return LocalModelResult(
        quantum_joint=JointGridDensity(theta_a, theta_b, quantum),
        lhv_joint=JointGridDensity(theta_a, theta_b, lhv),
        max_discrepancy=discrepancy,
    )
