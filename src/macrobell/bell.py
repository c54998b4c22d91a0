"""Bipartite sign-binned correlations and the CHSH combination.

A Schmidt-diagonal pair state sum_k c_k |k>|k>, read out party-wise through
the coarse-grained collective variable and binned by sign, has correlators
that reduce to a bilinear form in a fixed table of sign-weighted level
overlaps: one trigonometric polynomial of the angle sum, with closed-form
derivatives.  Its 2d - 1 Fourier coefficients are built once per state and
table; ``correlators`` evaluates them at all four pair sums at once, as do
CHSH values and scan points.  This module builds the table, evaluates and
maximizes the CHSH combination over the four analyzer angles (up to
``limits.MAX_SCHMIDT_RANK`` = 2001 levels), and cross-checks the full
coarse-graining branch against its separable hidden-variable construction.

The clean sign table is a closed form at every level count.  A smoothed
table moves the width onto the readout, int S (K^0 * N(0, s^2)) =
int (S * N(0, s^2)) K^0: it is the clean table plus one matrix product of
the width-0 ``limits.level_rows`` against ``limits.gauss_legendre`` weights
times the readout's departure from the sign.  The rotor joints integrate by
the trapezoid rule, so the module needs numpy alone.
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
from .limits import (MAX_SCHMIDT_RANK, ROTOR_ANGLE_MAX, gauss_legendre, level_rows,
                     real_half_width)

#: Number of coarse-search points per angle (step pi/36).
COARSE_GRID_POINTS = 72

#: Convergence tolerance (in CHSH value) of the local refinement.
REFINE_VALUE_TOL = 1e-10

#: Coarse-scan values within this of the maximum count as ties, so that
#: rounding noise in the sign table cannot reorder them.
SCAN_TIE_TOL = 1e-12

#: Reach, in widths, of the Gaussian that smooths a readout.
_SMOOTHING_REACH = 10.0

#: Correlator pairs, in the order they enter the CHSH combination.
PAIR_NAMES = ("AB", "AB'", "A'B", "A'B'")

# Row p picks pair p's angle sum from (phi_a, phi_a', phi_b, phi_b').
_PAIR_SUMS = np.array([[1.0, 0.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, 1.0],
                       [0.0, 1.0, 1.0, 0.0],
                       [0.0, 1.0, 0.0, 1.0]])

#: Sign of each pair's correlator in the CHSH combination, in ``PAIR_NAMES`` order.
CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])
CHSH_SIGNS.flags.writeable = False


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
    half = np.zeros((k_max + 1, k_max + 1))
    half[::2, 1::2] = 2.0 * np.outer(psi[::2], slope[1::2]) / (k[1::2] - k[::2, None])
    return half + half.T


def _readout(x: np.ndarray, width: float, edge: float, ramp) -> np.ndarray:
    """R = S * N(0, s^2) at the increasing points x >= 0, s = width > 0:
    Phi((x - edge) / s) - Phi((-x - edge) / s) where S is +-1, plus the ramp
    on [-edge, edge] against the Gaussian in 48-node Gauss-Legendre panels
    of at most 20 s, each at the points within 10 s (all but 2e-23 of it);
    only the panels that hold x - 10 s, x or x + 10 s of some point enter."""
    def erfc(z):  # a list pass: np.vectorize costs about 1 us a point
        return np.array([math.erfc(v) for v in z.tolist()])

    reach, scale = _SMOOTHING_REACH * width, math.sqrt(2.0) * width
    total = 0.5 * (erfc((edge - x) / scale) - erfc((edge + x) / scale))
    if edge > 0.0:
        t, w = gauss_legendre(48)
        panels = math.ceil(edge / reach)
        half = edge / panels
        hits = np.floor((np.concatenate([x - reach, x, x + reach]) + edge) / (2.0 * half))
        for panel in np.unique(np.clip(hits, 0, panels - 1)).tolist():
            y = half * (2.0 * panel + 1.0 + t) - edge
            near = slice(*np.searchsorted(x, [y[0] - reach, y[-1] + reach]))
            gauss = np.exp(-np.subtract.outer(x[near], y) ** 2 / (2.0 * width * width))
            total[near] += gauss @ (half * w * ramp(y)) / (math.sqrt(2.0 * math.pi) * width)
    return total


def _half_line_overlaps(k_max: int, width: float, edge: float, ramp,
                        nodes: int | None = None) -> np.ndarray:
    # The width-0 kernels against the odd R = S * N(0, s^2): the clean table (R = sign)
    # plus twice the half-line integral of R - 1 at odd k + l, which vanishes past
    # edge + 10 s or the levels' band: max(600, 2 k_max) nodes (600 held to 500 levels).
    knot = min(edge + _SMOOTHING_REACH * width, real_half_width(k_max))
    t, w = gauss_legendre(nodes or max(600, 2 * k_max))
    x = 0.5 * knot * (t + 1.0)
    excess = (_readout(x, width, edge, ramp) if width > 0.0 else ramp(x)) - 1.0
    rows = level_rows(k_max, x)
    # sum_p K_kl(x_p) w_p (R(x_p) - 1), for even k against odd l
    table = np.zeros((k_max + 1, k_max + 1))
    table[::2, 1::2] = 2.0 * ((rows[::2] * (0.5 * knot * w * excess)) @ rows[1::2].T)
    return _clean_sign_table(k_max) + table + table.T


def sign_overlap_table(k_max: int, width: float = 0.0, edge: float = 0.0,
                       ramp=None) -> SignOverlapTable:
    """Overlaps of the width-smeared level kernels up to ``k_max`` against an
    odd step S, ``ramp(x)`` on [0, edge] and 1 beyond (the sign when ``ramp``
    is None): for the sign convolved with a noise density on [-edge, edge],
    the sign integral of each kernel after that noise.

    At width = edge = 0 it is the clean sign table, a closed form.  Otherwise
    it is that table plus max(600, 2 k_max) Gauss-Legendre nodes of the
    width-0 ``level_rows`` against R - 1, R = S * N(0, width^2), on
    [0, edge + 10 width] inside the levels' band ``limits.real_half_width``.
    A width needs a finite band ``real_half_width(k_max, width)``.
    """
    k_max = check_integer(k_max, "k_max", 0)
    width, edge = check_real(width, "width", 0), check_real(edge, "edge", 0)
    real_half_width(k_max, width)
    if width < 1e-8:  # it moves the table by O(width^2), under 1e-16
        width = 0.0
    if ramp is None:
        edge = 0.0
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


def _fourier_series(config: BellConfig, table: SignOverlapTable | None) -> np.ndarray:
    """Coefficients C_n, n = 1 - d .. d - 1, of the correlator sum_n C_n e^{i n theta}:
    C_n = sum_{l - k = n} conj(c_k) c_l T_kl^2, by default from the sign table."""
    if table is None:
        table = sign_overlap_table(config.k_max)
    if table.k_max < config.k_max:
        raise ValidationError(f"the overlap table holds levels up to {table.k_max}, "
                              f"the state up to {config.k_max}")
    c, d = config.schmidt_coeffs, config.schmidt_coeffs.size
    cross = np.outer(np.conj(c), c) * table.values[:d, :d] ** 2
    return np.array([np.trace(cross, n) for n in range(1 - d, d)])


def _pair_correlation(series: np.ndarray, phase_sum, order: int = 0) -> np.ndarray:
    """Correlator, or its ``order``-th derivative, in the angle sum (vectorized over it)."""
    n = np.arange(series.size) - series.size // 2
    phases = np.exp(1j * np.asarray(phase_sum, dtype=float)[..., None] * n)
    return np.real(phases @ (series * (1j * n) ** order))


def _chsh_terms(series: np.ndarray, angles, order: int = 0) -> np.ndarray:
    """The four signed CHSH terms, or their ``order``-th derivatives in the pair sums."""
    return CHSH_SIGNS * _pair_correlation(series, _PAIR_SUMS @ angles, order)


def correlators(config: BellConfig, table: SignOverlapTable | None = None) -> np.ndarray:
    """The four sign-binned correlators in ``PAIR_NAMES`` order, read-only: one
    Fourier series at the four pair sums.  ``table`` overrides the level-overlap
    table: a smoothed one gives the correlators of a smeared, noisy readout."""
    values = _pair_correlation(_fourier_series(config, table), _PAIR_SUMS @ config.angles)
    values.flags.writeable = False
    return values


correlator = correlators  # the name that bench/layers.py traces; not exported


def chsh_value(config: BellConfig, table: SignOverlapTable | None = None) -> float:
    """CHSH combination <AB> + <AB'> + <A'B> - <A'B'>."""
    return float((CHSH_SIGNS * correlators(config, table)).sum())


class OptimizeResult(NamedTuple):
    angles: tuple[float, float, float, float]
    value: float


def _first_near_max(values) -> int:
    """First index of the 1-d ``values`` within ``SCAN_TIE_TOL`` of their maximum."""
    return int(np.argmax(values >= values.max() - SCAN_TIE_TOL))


def _scan_start(grid_values: np.ndarray) -> np.ndarray:
    """Grid indices (0, a', b, b') of the scan start, from the correlator at the n
    grid angle sums.  Moving a, a' up and b, b' down one step permutes the index sums
    mod n of a grid point, so every 4-d total recurs bit for bit with a = 0."""
    n = grid_values.size
    shifted = grid_values[np.add.outer(np.arange(n), np.arange(n)) % n]  # g(theta_i + theta_j)
    plus, minus = grid_values + shifted, grid_values - shifted         # [a', b] and [a', b']
    iap = _first_near_max(plus.max(axis=1) + minus.max(axis=1))
    return np.array([0, iap, _first_near_max(plus[iap]), _first_near_max(minus[iap])])


def optimize_chsh(schmidt_coeffs) -> OptimizeResult:
    """Maximize the CHSH value over the four analyzer angles.

    Deterministic: a coarse scan on the pi/36 grid picks the
    lexicographically smallest grid point within ``SCAN_TIE_TOL`` of the
    maximum.  Each correlator depends only on an angle sum, so the scan fixes
    a = 0 (the gauge below maps every grid point to one there) and maximizes
    b and b' separately for each a'.  Newton steps on the closed-form gradient
    and Hessian refine it, ascending: each drops the gauge null direction
    (a, a' up; b, b' down, along which the angles stay free) and takes the
    other curvatures by modulus, halved until the value grows, until a step
    gains less than ``REFINE_VALUE_TOL``.  Past 16 levels the correlator has
    more peaks than the pi/36 grid resolves, and the value can be a local
    maximum: a lower bound on the optimum.
    """
    series = _fourier_series(BellConfig(schmidt_coeffs), None)
    step = 2.0 * np.pi / COARSE_GRID_POINTS
    angles = step * _scan_start(_pair_correlation(series, step * np.arange(COARSE_GRID_POINTS)))
    value, gain = _chsh_terms(series, angles).sum(), math.inf
    while gain >= REFINE_VALUE_TOL:
        gradient = _PAIR_SUMS.T @ _chsh_terms(series, angles, 1)
        curvature, axes = np.linalg.eigh(
            _PAIR_SUMS.T @ (_chsh_terms(series, angles, 2)[:, None] * _PAIR_SUMS))
        # Drop the gauge axis, which _PAIR_SUMS maps to zero, and every
        # numerically flat one (the matrix_rank cut; all four at rank 1).
        keep = np.abs(curvature) > 4.0 * np.finfo(float).eps * np.abs(curvature).max()
        keep[np.argmin(np.linalg.norm(_PAIR_SUMS @ axes, axis=0))] = False
        move = axes[:, keep] @ ((gradient @ axes[:, keep]) / np.abs(curvature[keep]))
        # Halve until the step gains or its first-order gain is below the tolerance.
        trial = _chsh_terms(series, angles + move).sum()
        while trial <= value and gradient @ move >= REFINE_VALUE_TOL:
            move = move / 2.0
            trial = _chsh_terms(series, angles + move).sum()
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
