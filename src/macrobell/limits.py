"""Limit distributions of the rescaled collective variable.

For square-root coarse graining the limit law of a level superposition
is an oscillator-mode density smeared by a Gaussian of width
``s = sqrt(sigma^2/tau^2 - 1)``; its characteristic function is that
Gaussian's times a Fourier sum of the unsmeared density.  For linear
coarse graining the limit is a planar-rotor angle distribution on
[0, pi].  This module provides those laws, the one representation of the
smeared levels that every square-root quantity reads (``level_rows``:
normalised Hermite rows at the nodes of one Gauss-Hermite rule, whose
node sums are the level-pair kernels) and the band that holds them
(``real_half_width``), the Gauss-Legendre rule of the sign tables
(``gauss_legendre``), and a check of the smearing identity behind the rows.

A caller's grid passes ``errors.check_grid``: finite, 1-d, strictly
increasing and inside its domain, [0, ``ROTOR_ANGLE_MAX``] for rotor angles
and the open (-1, 1) for the pushforward.  ``GridDensity`` holds it, and its
finite density, as read-only arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    GridTooNarrowError,
    NegativeDensityError,
    NumericError,
    ValidationError,
    check_grid,
    check_integer,
    check_real,
    check_real_array,
    check_unit_vector,
)

__all__ = [
    "GridDensity",
    "LimitState",
    "hermite",
    "level_rows",
    "gauss_legendre",
    "real_half_width",
    "default_real_grid",
    "default_rotor_grid",
    "limit_density_alpha_half",
    "limit_charfn_alpha_half",
    "limit_density_alpha_one",
    "rotor_pushforward",
    "verify_hermite_lemma",
]

BOUNDARY_MASS_TOL = 1e-10

# e^-E is a normal float for E up to this.
_SEED_EXPONENT_MAX = 708.0

#: Largest angle of a rotor grid: pi, with slack for a computed endpoint.
ROTOR_ANGLE_MAX = math.pi + 1e-12

#: Most floats of ``level_rows`` that a consumer holds at once, taking its points in blocks.
ROW_BLOCK_FLOATS = 2**24


@dataclass(frozen=True)
class GridDensity:
    """Finite probability density sampled on a strictly increasing grid;
    both arrays are read-only."""

    grid: np.ndarray
    density: np.ndarray
    domain: str = "real_line"  # or "rotor_half_circle"

    def __post_init__(self):
        g, d = check_grid(self.grid, "grid"), check_real_array(self.density, "density")
        if g.shape != d.shape:
            raise ValidationError("grid and density must be matching 1-d arrays")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def moment(self, order: int, central: bool = False) -> float:
        x = self.grid
        if central:
            x = x - self.moment(1)
        return float(np.trapezoid(self.density * x**order, self.grid))

    def mean(self) -> float:
        return self.moment(1)

    def cdf(self, x) -> np.ndarray:
        dx = np.diff(self.grid)
        masses = 0.5 * (self.density[1:] + self.density[:-1]) * dx
        cumulative = np.concatenate([[0.0], np.cumsum(masses)])
        return np.interp(np.asarray(x, dtype=float), self.grid, cumulative)


@dataclass(frozen=True)
class LimitState:
    """Level coefficients plus the (phi, width) pair of the measurement;
    ``phi`` must be finite and ``width`` nonnegative."""

    coeffs: np.ndarray
    phi: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", check_unit_vector(self.coeffs))
        check_real(self.phi, "phi")
        check_real(self.width, "width", 0)

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1


def _hermite_rows(k_max: int, x: np.ndarray) -> np.ndarray:
    """He_0..He_k_max stacked along axis 0, by the three-term recurrence."""
    rows = np.empty((k_max + 1,) + x.shape, dtype=float)
    rows[0] = 1.0
    if k_max >= 1:
        rows[1] = x
    for j in range(1, k_max):
        rows[j + 1] = x * rows[j] - j * rows[j - 1]
    return rows


def hermite(k: int, x):
    """Probabilists' Hermite polynomial He_k via the three-term recurrence."""
    k = check_integer(k, "k", 0)
    return _hermite_rows(k, np.asarray(x, dtype=float))[k]


def level_rows(k_max: int, x, s: float, k_min: int = 0) -> np.ndarray:
    """Rows k_min..k_max of the width-s level kernels at the finite reals x,
    shape (d, nodes) + x.shape.

    ``d = k_max - k_min + 1``; a state supported on high levels only (a
    padded base level) needs just those rows.  Kernel (k, l), <k| e_s(x) |l>,
    is ``sum_j row_k[j] row_l[j]`` over the nodes j, exact at every width:
    with a^2 = 1 + s^2 it is a Gaussian in x times the mean of the
    degree-(k + l) polynomial He_k He_l / sqrt(k! l!) at
    y ~ N(x / a^2, s^2 / a^2), which the (k_max + 1)-node Gauss-Hermite rule
    integrates exactly.  Row k at node j is the normalised recurrence at
    y_j = x / a^2 + (s / a) sqrt(2) t_j, seeded by
    (2 pi)^(-1/4) sqrt(w_j / (sqrt(pi) a)) e^(-x^2/(4 a^2)); squared, it is at
    most the kernel <k| e_s(x) |k>, so nothing overflows, and past |x| = 53.2 a,
    where the seed is no normal float, it is carried as a power of two, so
    nothing underflows while the rows are not negligible.  At s = 0 the rule
    is the one node t = 0, w = sqrt(pi), and row k is the oscillator
    wavefunction <x|k> = (2 pi)^(-1/4) He_k(x) e^(-x^2/4) / sqrt(k!).  At
    s > 0 level 370 and above raise NumericError, where numpy's Gauss-Hermite
    rule degenerates.
    """
    k_max = check_integer(k_max, "k_max", 0)
    k_min = check_integer(k_min, "k_min", 0, k_max)
    s, x = check_real(s, "s", 0), check_real_array(x, "x")
    alpha2 = 1.0 + s * s
    nodes, weights = _hermgauss_cached(k_max + 1 if s > 0.0 else 1)
    y = np.add.outer(s * math.sqrt(2.0 / alpha2) * nodes, x / alpha2)
    rows = np.empty((k_max - k_min + 1,) + y.shape)
    # Past |x| = 53.2 a the seed leaves the normal floats, while high levels there
    # are O(1): it is lifted into [1, 2) by 2^carry (the exponent capped at 1e5,
    # so carry fits an int), which the rows shed, exactly, as they grow.
    exponent = 0.25 * x * x / alpha2
    carry = np.where(exponent > _SEED_EXPONENT_MAX,
                     np.ceil(np.minimum(exponent, 1e5) / math.log(2.0)), 0.0).astype(int)
    seed = np.exp(carry * math.log(2.0) - exponent)
    below, row = 0.0, np.multiply.outer(np.sqrt(weights / math.sqrt(np.pi * alpha2)),
                                        (2.0 * np.pi) ** -0.25 * seed)
    carried = carry.any()
    for k in range(k_max + 1):
        if carried and k % 16 == 0:  # shed what the rows grew by; powers of two are exact
            shed = np.minimum(carry, np.maximum(np.frexp(np.max(np.abs(row), axis=0))[1], 0))
            below, row, carry = below * np.exp2(-shed), row * np.exp2(-shed), carry - shed
            scale, carried = np.exp2(-carry), carry.any()
        if k >= k_min:
            np.multiply(row, scale if carried else 1.0, out=rows[k - k_min])
        below, row = row, (y * row - math.sqrt(k) * below) / math.sqrt(k + 1.0)
    return rows


@lru_cache(maxsize=32)
def _level_pair_coefficients(k_max: int) -> np.ndarray:
    """c[k, l, n] = sqrt(k! l!) / (q! (k-q)! (l-q)!) at n = k + l - 2q, else 0.

    He_k He_l / sqrt(k! l!) = sum_n c[k, l, n] He_n, the closed side of
    ``verify_hermite_lemma``.
    """
    c = np.zeros((k_max + 1, k_max + 1, 2 * k_max + 1))
    f = [math.factorial(j) for j in range(k_max + 1)]
    if f[k_max] ** 2 > sys.float_info.max:
        raise NumericError(f"Hermite pair coefficients overflow at level {k_max}")
    for k in range(k_max + 1):
        for l in range(k_max + 1):
            for q in range(min(k, l) + 1):
                c[k, l, k + l - 2 * q] = math.sqrt(f[k] * f[l]) / (f[q] * f[k - q] * f[l - q])
    c.flags.writeable = False
    return c


def real_half_width(k_max: int, width: float = 0.0) -> float:
    """Half-width of the band of every alpha = 1/2 grid, lattice and half-line: 12
    past the top level's turning point 2 sqrt(k_max + 1/2), times sqrt(1 + width^2)."""
    k_max, width = check_integer(k_max, "k_max", 0), check_real(width, "width", 0)
    return (2.0 * math.sqrt(k_max + 0.5) + 12.0) * math.sqrt(1.0 + width * width)


def default_real_grid(k_max: int, points: int | None = None, width: float = 0.0) -> np.ndarray:
    """Uniform grid over +-``real_half_width``.

    Without ``points`` it has 4001 points, or from level 1956 on
    2 (2 sqrt(k_max + 1/2) + 12) sqrt(2 k_max + 1) / pi + 1: sqrt(2) points
    per half wavelength pi / sqrt(k_max + 1/2) of the top level at the
    origin, so the trapezoid rule resolves its density.
    """
    half_width = real_half_width(k_max, width)
    if points is None:
        points = max(4001, math.ceil(2.0 * real_half_width(k_max)
                                     * math.sqrt(2.0 * k_max + 1.0) / math.pi) + 1)
    return np.linspace(-half_width, half_width, check_integer(points, "points", 2))


def default_rotor_grid(points: int = 2001) -> np.ndarray:
    """``points`` (an integer >= 2) uniform angles over [0, pi]."""
    return np.linspace(0.0, np.pi, check_integer(points, "points", 2))


def limit_density_alpha_half(state: LimitState, grid=None) -> GridDensity:
    """Limit density of X under square-root coarse graining.

    ``P(x) = sum_{k,l} conj(b_k) b_l K_kl(x)`` with
    ``b_k = c_k e^{i k (phi + pi)}`` and K the width-``state.width``
    smeared kernel.  At width 0 this is a pure oscillator-mode density
    |sum_k b_k <x|k>|^2.

    The extra pi in the phase factors: ``phi`` is stored as the argument
    of minus the off-diagonal scale element, while the level kernels are
    oriented by the argument of the element itself.  Dropping the offset
    would mirror every odd cross term, contradicting both the exact
    finite-size law (the mean of (|N,0>+|N,1>)/sqrt(2) under a x-basis
    projective measurement is +1, not -1) and the Fourier transform of
    ``limit_charfn_alpha_half``.
    """
    own_grid = grid is None
    if own_grid:
        grid = default_real_grid(state.k_max, width=state.width)
    grid = check_grid(grid, "grid")
    b = state.coeffs * np.exp(1j * np.arange(state.coeffs.size) * (state.phi + np.pi))
    # only the populated levels enter; as K_kl = sum_j row_k[j] row_l[j] over the
    # nodes j, P is the sum of |sum_k b_k row_k[j]|^2, real and imaginary parts
    low, high = np.flatnonzero(b)[[0, -1]]
    parts = np.stack([b.real, b.imag])[:, low:high + 1]
    block = max(1, ROW_BLOCK_FLOATS // ((high - low + 1) * (high + 1 if state.width > 0.0 else 1)))
    density = np.concatenate([
        np.sum(np.tensordot(parts, level_rows(high, grid[i:i + block], state.width, low),
                            axes=1) ** 2, axis=(0, 1))
        for i in range(0, grid.size, block)])
    worst = float(density.min())
    if not worst >= -1e-10:
        raise NegativeDensityError(f"density dipped to {worst:.3e}")
    density = np.clip(density, 0.0, None)
    edge = max(float(density[0]), float(density[-1]))
    if not edge <= BOUNDARY_MASS_TOL:
        raise GridTooNarrowError(
            f"density {edge:.3e} at the grid boundary exceeds {BOUNDARY_MASS_TOL:.0e}"
        )
    result = GridDensity(grid=grid, density=density, domain="real_line")
    # On its own grid the density must integrate to 1; a caller's grid
    # (say, a coarse one) is the caller's to judge.
    if own_grid and not abs(result.integral() - 1.0) <= 1e-6:
        raise NumericError(f"density integrates to {result.integral():.6g} on its default grid")
    return result


def limit_charfn_alpha_half(state: LimitState, t):
    """E[exp(i t X)] of the square-root limit law at a finite real ``t`` or an
    array of them, exactly 1 at 0: exp(-w^2 t^2 / 2) (w = ``state.width``)
    times the trapezoid sum phi_0(t) = h sum_j rho_0(x_j) e^{i t x_j} of the
    width-0 density on x_j = j h inside +-``real_half_width``.  Its weights
    are nonnegative, so nothing cancels.  Poisson summation leaves the
    aliases phi_0(t + 2 pi m / h), m != 0, and |phi_0| < 1e-40 beyond
    Omega = 2 sqrt(2 k_max + 1) + 12, so h is the largest multiple of 2^-20
    (exact grid points) up to 2 pi / (min(max|t|, Omega) + Omega), and
    |t| > Omega gives 0.
    """
    from .finite_n import lattice_char_fn  # on call: finite_n is the heavier stack

    t_arr = check_real_array(t, "t")
    band = 2.0 * math.sqrt(2.0 * state.k_max + 1.0) + 12.0
    step = math.floor(2.0**21 * np.pi / (min(float(np.max(np.abs(t_arr), initial=0.0)), band)
                                         + band)) / 2.0**20
    half = math.floor(real_half_width(state.k_max) / step)
    x = step * np.arange(-half, half + 1)
    rho = limit_density_alpha_half(LimitState(state.coeffs, state.phi), x).density
    phi0 = np.where(np.abs(t_arr) <= band, lattice_char_fn(x, step * rho, t_arr), 0.0)
    values = np.exp(-0.5 * (state.width * t_arr) ** 2) * phi0
    return complex(values) if np.ndim(t) == 0 else values


def limit_density_alpha_one(coeffs, phi: float, theta_grid=None) -> GridDensity:
    """Planar-rotor angle density on [0, pi] under linear coarse graining.

    ``P(theta) = (|f(theta)|^2 + |f(-theta)|^2) / (2 pi)`` with
    ``f(theta) = sum_k c_k e^{i k phi} e^{i k theta}``; only level
    differences matter, so any common index offset drops out.  ``phi``
    must be finite, and ``theta_grid`` a strictly increasing grid inside
    [0, ``ROTOR_ANGLE_MAX``].
    """
    c = check_unit_vector(coeffs)
    phi = check_real(phi, "phi")
    if theta_grid is None:
        theta_grid = default_rotor_grid()
    theta = check_grid(theta_grid, "theta_grid", 0.0, ROTOR_ANGLE_MAX)
    k = np.arange(c.size)
    b = c * np.exp(1j * k * phi)
    f_plus = np.exp(1j * np.outer(theta, k)) @ b
    f_minus = np.exp(-1j * np.outer(theta, k)) @ b
    density = (np.abs(f_plus) ** 2 + np.abs(f_minus) ** 2) / (2.0 * np.pi)
    worst = float(density.min())
    if worst < -1e-10 or not np.all(np.isfinite(density)):
        raise NegativeDensityError(f"rotor density dipped to {worst:.3e}")
    density = np.clip(density, 0.0, None)
    return GridDensity(grid=theta, density=density, domain="rotor_half_circle")


def rotor_pushforward(rotor: GridDensity, x_grid=None) -> GridDensity:
    """Push the rotor law through x = cos(theta) with the 1/|sin| Jacobian.

    The density diverges at x = +-1, so the target grid must be strictly
    increasing and stay strictly inside (-1, 1).
    """
    if rotor.domain != "rotor_half_circle":
        raise ValidationError("pushforward needs a rotor_half_circle density")
    if x_grid is None:
        x_grid = np.linspace(-0.999, 0.999, 1999)
    x = check_grid(x_grid, "x_grid", -1.0, 1.0, exclusive=True)
    theta = np.arccos(x)
    p_theta = np.interp(theta, rotor.grid, rotor.density)
    density = p_theta / np.abs(np.sin(theta))
    return GridDensity(grid=x, density=density, domain="real_line")


@lru_cache(maxsize=8)
def _hermgauss_cached(n_nodes: int):
    """Gauss-Hermite nodes and weights, whose sum must be sqrt(pi) (numpy 2.4
    returns all-zero weights at 371 nodes and non-finite ones from 372)."""
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
        total = float(weights.sum())
    if not abs(total - math.sqrt(math.pi)) <= 1e-12:
        raise NumericError(f"the {n_nodes}-node Gauss-Hermite rule for level {n_nodes - 1} "
                           f"is degenerate: its weights sum to {total:.3g}")
    return nodes, weights


def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the ``nodes``-point Gauss-Legendre
    rule on [-1, 1], cached and read-only; ``nodes`` must be an integer >= 1."""
    return _gauss_legendre_cached(check_integer(nodes, "nodes", 1))


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    below, p = np.ones_like(x), x
    for j in range(2, n + 1):
        below, p = p, ((2 * j - 1) * x * p - (j - 1) * below) / j
    return p, below


@lru_cache(maxsize=8)
def _gauss_legendre_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton in theta on P_n(cos theta) for the nodes with x >= 0, mirrored.

    Tricomi's guesses theta_k = pi (k - 1/4) / (n + 1/2) are within
    O(n^-2) of the roots, so three steps
    theta += P_n sin(theta) / (n (P_{n-1} - x P_n)) reach rounding level
    (Hale and Townsend, SIAM J. Sci. Comput. 35, A652, 2013).  The weights
    2 / ((1 - x^2) P_n'^2) are formed as 2 sin^2(theta) / (n (P_{n-1} - x P_n))^2.
    """
    theta = np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    for _ in range(3):
        x = np.cos(theta)
        p, below = _legendre_pair(n, x)
        theta = theta + p * np.sin(theta) / (n * (below - x * p))
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # an odd P_n vanishes at 0 exactly
    p, below = _legendre_pair(n, x)
    w = 2.0 * np.sin(theta) ** 2 / (n * (below - x * p)) ** 2
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def verify_hermite_lemma(m: int, n: int, beta: float, gamma: float) -> float:
    """Max |closed Hermite sum - Gaussian convolution| on a grid of 401
    points over [-(6a + max(m, n)), 6a + max(m, n)].

    The identity: with alpha^2 = beta^2 + gamma^2,

      e^{-x^2/(2 a^2)}/(sqrt(2 pi) a) * sum_q  C(m+n-2q, n-q)/q!
          * (g/a)^{m+n-2q} He_{m+n-2q}(x/a)/(m+n-2q)!
      = integral dx' G_beta(x - x') e^{-x'^2/(2 g^2)}/(sqrt(2 pi) g)
          * He_m(x'/g) He_n(x'/g) / (m! n!)

    The left side is summed from the level-pair coefficient table, the
    right side by the (m + n + 1)-node Gauss-Hermite rule after completing
    the square; the polynomial factor has degree m + n, so the rule is
    exact for it.
    """
    m, n = check_integer(m, "m", 0), check_integer(n, "n", 0)
    beta = check_real(beta, "beta", 0, open_low=True)
    gamma = check_real(gamma, "gamma", 0, open_low=True)
    alpha = math.hypot(beta, gamma)
    x = np.linspace(-6.0 * alpha - max(m, n), 6.0 * alpha + max(m, n), 401)

    u = x / alpha
    c = _level_pair_coefficients(max(m, n))[m, n, :m + n + 1]
    series = (c * (gamma / alpha) ** np.arange(c.size)) @ _hermite_rows(m + n, u)
    closed = (np.exp(-0.5 * u * u) * series / (math.sqrt(2.0 * np.pi) * alpha)
              / math.sqrt(math.factorial(m) * math.factorial(n)))

    nodes, weights = _hermgauss_cached(m + n + 1)
    var = (beta * gamma / alpha) ** 2
    center = (gamma / alpha) ** 2 * x
    xp = center[:, None] + math.sqrt(2.0 * var) * nodes[None, :]
    integrand = hermite(m, xp / gamma) * hermite(n, xp / gamma)
    convolved = (
        np.exp(-0.5 * u * u)
        * math.sqrt(2.0 * var)
        / (2.0 * np.pi * beta * gamma)
        * (integrand @ weights)
        / (math.factorial(m) * math.factorial(n))
    )
    return float(np.max(np.abs(closed - convolved)))
