"""Grid routes for the sign tables and the classical readout noise: test
oracles for the closed forms in ``bell`` and ``noise``.

The package evaluates every sign-binned correlator from a sign table, in
closed form or of half-line Gauss-Legendre overlaps, and classical readout
noise through a closed-form smoothed sign.  These routes compute the same
numbers on a sampled grid instead: the width-s level-pair kernels formed
point by point from Gauss-Hermite rows (``node_rule_rows``, the smearing
kept on the rows rather than moved onto the readout or the law as the
package does; and the sign tables contracted from them), the joint (x, y)
readout density of a Schmidt pair, Simpson's rule split at the sign
discontinuity, and the noise applied to sampled values by a cubic-spline
convolution.  They use scipy, which the package itself does not need.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from macrobell.bell import JointGridDensity
from macrobell.errors import GridTooNarrowError, NegativeDensityError, ValidationError
from macrobell.limits import (BOUNDARY_MASS_TOL, GridDensity, default_real_grid, gauss_legendre,
                              real_half_width)

#: Gauss-Legendre node count for the classical-noise convolution.
CONVOLUTION_NODES = 64


#: Most levels ``node_rule_rows`` takes at s > 0: numpy's Gauss-Hermite rule has
#: all-zero weights at 371 nodes (numpy 2.4) and non-finite ones from 372.
NODE_RULE_MAX_LEVEL = 369


def node_rule_rows(k_max: int, x, s: float, k_min: int = 0) -> np.ndarray:
    """Rows k_min..k_max of the width-s level kernels at the reals x, shape
    (d, nodes) + x.shape: kernel (k, l) is ``sum_j row_k[j] row_l[j]``.

    With a^2 = 1 + s^2 the kernel is a Gaussian in x times the mean of the
    degree-(k + l) polynomial He_k He_l / sqrt(k! l!) at
    y ~ N(x / a^2, s^2 / a^2), which the (k_max + 1)-node Gauss-Hermite rule
    integrates exactly: row k at node j is the normalised recurrence at
    y_j = x / a^2 + (s / a) sqrt(2) t_j, seeded by
    (2 pi)^(-1/4) sqrt(w_j / (sqrt(pi) a)) e^(-x^2/(4 a^2)), carried as a power
    of two past |x| = 53.2 a.  At s = 0 it is the one node t = 0, w = sqrt(pi).
    """
    if s > 0.0 and k_max > NODE_RULE_MAX_LEVEL:
        raise ValueError(f"the node rule holds levels up to {NODE_RULE_MAX_LEVEL} at s > 0")
    x = np.asarray(x, dtype=float)
    alpha2 = 1.0 + s * s
    nodes, weights = (np.polynomial.hermite.hermgauss(k_max + 1) if s > 0.0
                      else (np.zeros(1), np.full(1, math.sqrt(math.pi))))
    y = np.add.outer(s * math.sqrt(2.0 / alpha2) * nodes, x / alpha2)
    rows = np.empty((k_max - k_min + 1,) + y.shape)
    exponent = 0.25 * x * x / alpha2
    carry = np.where(exponent > 708.0,
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


def kernels(k_max: int, x, s: float, k_min: int = 0) -> np.ndarray:
    """Every <k| e_s(x) |l> for k_min <= k, l <= k_max, shape (d, d) + x.shape:
    the node sums of ``node_rule_rows``."""
    rows = node_rule_rows(k_max, x, s, k_min)
    return np.einsum("kj...,lj...->kl...", rows, rows)


def pair_kernel(k: int, l: int, x, s: float) -> np.ndarray:
    """<k| e_s(x) |l>: entry (k, l) of ``kernels``."""
    low = min(k, l)
    return kernels(max(k, l), x, s, low)[k - low, l - low]


def half_line_table(k_max: int, width: float = 0.0, edge: float = 0.0, ramp=None,
                    nodes: int = 600) -> np.ndarray:
    """The values of a smoothed ``bell.sign_overlap_table`` from the
    (d, d, P) stack of ``kernels``: S against the width-s kernels on the
    width-s band, split at the edge, contracted entry by entry, where the
    package takes the smoothed S against the width-0 rows.  At
    width = edge = 0 it is a quadrature route to the closed-form clean table."""
    half_width = real_half_width(k_max, width)
    t, w = gauss_legendre(nodes)
    knot = min(edge, half_width)
    x, weights = [], []
    for lo, hi, smooth in ((0.0, knot, ramp), (knot, half_width, None)):
        if hi > lo:
            x.append(lo + 0.5 * (hi - lo) * (t + 1.0))
            weights.append(0.5 * (hi - lo) * w * (1.0 if smooth is None else smooth(x[-1])))
    table = 2.0 * (kernels(k_max, np.concatenate(x), width) @ np.concatenate(weights))
    k = np.arange(k_max + 1)
    table[(k[:, None] + k[None, :]) % 2 == 0] = 0.0
    return table


def bipartite_density(config, x_grid=None, y_grid=None, *, width_a: float = 0.0,
                      width_b: float = 0.0) -> JointGridDensity:
    """Joint readout density of a Schmidt pair at square-root coarse graining.

    Uses the unprimed angle pair of the ``bell.BellConfig``: the density is
    the squared amplitude sum_k c_k exp(ik(phi_a + phi_b)) <x|k><y|k>,
    smeared per party by the Gaussian widths ``width_a`` and ``width_b``.
    The per-party phase conventions cancel in the angle sum.  A density
    below -1e-10 raises NegativeDensityError, and one above
    ``BOUNDARY_MASS_TOL`` on the grid's edge GridTooNarrowError.
    """
    k_max = config.k_max
    if x_grid is None:
        x_grid = default_real_grid(k_max, width=width_a)
    if y_grid is None:
        y_grid = default_real_grid(k_max, width=width_b)
    b = config.schmidt_coeffs * np.exp(1j * np.arange(k_max + 1) * (config.phi_a + config.phi_b))

    # Contract only the d(d+1)/2 distinct kernel pairs; the off-diagonal ones
    # enter twice through the real part of the coefficient product.
    i, j = np.triu_indices(k_max + 1)
    weights = np.where(i == j, 1.0, 2.0) * np.real(np.conj(b[i]) * b[j])
    kernels_x = kernels(k_max, x_grid, width_a)[i, j]
    kernels_y = kernels(k_max, y_grid, width_b)[i, j]
    density = kernels_x.T @ (weights[:, None] * kernels_y)

    lowest = float(density.min())
    if lowest < -1e-10:
        raise NegativeDensityError(f"joint density reached {lowest:.3e}")
    density = np.clip(density, 0.0, None)
    edge = max(density[0].max(), density[-1].max(), density[:, 0].max(), density[:, -1].max())
    if edge > BOUNDARY_MASS_TOL:
        raise GridTooNarrowError(f"joint density {edge:.3e} at the grid boundary")
    return JointGridDensity(x_grid, y_grid, density)


def signed_line_integral(grid, values, axis: int = -1):
    """Integral of sign(x) * values along ``axis``, split at the zero node.

    Composite Simpson on each half line; the split keeps the quadrature
    error at the sign discontinuity of order h^4 instead of h^2.
    """
    grid = np.asarray(grid, dtype=float)
    j = int(np.argmin(np.abs(grid)))
    scale = max(abs(grid[0]), abs(grid[-1]))
    if abs(grid[j]) > 1e-9 * scale:
        raise ValidationError("signed integration needs a grid node at zero")
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    return (simpson(values[..., j:], x=grid[j:], axis=-1)
            - simpson(values[..., :j + 1], x=grid[:j + 1], axis=-1))


def sign_correlator(joint) -> float:
    """Expectation of sign(x) * sign(y) under a ``bipartite_density``.

    Needs a grid node at (numerically) zero on each axis.
    """
    inner = signed_line_integral(joint.y_grid, joint.density, axis=1)
    return float(signed_line_integral(joint.x_grid, inner, axis=0))


def kernel_profile(shape: str, eps: float):
    """Density of the bounded noise on [-eps, eps] as a callable."""
    if shape == "uniform":
        return lambda r: np.full_like(r, 1.0 / (2.0 * eps))
    # Gaussian with sigma = eps/2, truncated at +-eps and renormalized.
    sigma = 0.5 * eps
    mass = math.erf(math.sqrt(2.0))  # integral of the untruncated core over [-eps, eps]
    return lambda r: np.exp(-0.5 * (r / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi) * mass)


def classical_noise_variance(eps: float, shape: str) -> float:
    """Exact variance of the noise density on [-eps, eps] (its mean is zero)."""
    if eps == 0.0:
        return 0.0
    if shape == "uniform":
        return eps**2 / 3.0
    sigma = 0.5 * eps
    a = 2.0  # truncation in units of sigma
    phi_a = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    return sigma**2 * (1.0 - 2.0 * a * phi_a / math.erf(a / math.sqrt(2.0)))


def convolve_values(grid, values, eps: float, shape: str):
    """Convolve sampled values with the bounded kernel; extends the grid by eps.

    The input samples are interpolated by a cubic spline (zero outside the
    grid) and the convolution integral is evaluated by Gauss-Legendre
    quadrature at every extended node, which preserves trapezoid-measured
    mass and variance of smooth inputs to near machine precision.
    """
    if eps == 0.0:
        return grid, values
    step_left = grid[1] - grid[0]
    step_right = grid[-1] - grid[-2]
    n_left = int(math.ceil(eps / step_left)) + 1
    n_right = int(math.ceil(eps / step_right)) + 1
    extended = np.concatenate([
        grid[0] - step_left * np.arange(n_left, 0, -1),
        grid,
        grid[-1] + step_right * np.arange(1, n_right + 1),
    ])
    spline = CubicSpline(grid, values, bc_type="natural", extrapolate=False)
    nodes, weights = gauss_legendre(CONVOLUTION_NODES)
    r = eps * nodes
    quad_weights = eps * weights * kernel_profile(shape, eps)(r)
    sampled = np.nan_to_num(spline(extended[:, None] - r[None, :]), copy=False)
    return extended, sampled @ quad_weights


def convolve_classical_noise(density: GridDensity, eps: float,
                             shape: str = "uniform") -> GridDensity:
    """Additive bounded readout noise: the density convolved with the kernel.

    Identity at eps = 0; otherwise the support widens by eps on both sides.
    """
    if density.domain != "real_line":
        raise ValidationError("classical noise convolution needs a real-line density")
    if eps == 0.0:
        return density
    grid, values = convolve_values(density.grid, density.density, eps, shape)
    return GridDensity(grid, np.clip(values, 0.0, None), domain="real_line")
