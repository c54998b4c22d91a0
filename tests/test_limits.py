"""Limit densities, kernels, and the oscillator machinery behind them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobell.errors import GridTooNarrowError, NumericError, ValidationError
from macrobell.limits import (
    BOUNDARY_MASS_TOL,
    GridDensity,
    LimitState,
    default_real_grid,
    default_rotor_grid,
    gauss_legendre,
    hermite,
    lattice_char_fn,
    level_rows,
    limit_charfn_alpha_half,
    limit_density_alpha_half,
    limit_density_alpha_one,
    real_half_width,
    rotor_pushforward,
    verify_hermite_lemma,
)

from grid_oracles import kernels, node_rule_rows, pair_kernel

PAPER = np.array([2 / math.sqrt(10), 1 / math.sqrt(2), 1 / math.sqrt(10)],
                 dtype=complex)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 600, 601, 1200])
def test_gauss_legendre_integrates_every_legendre_polynomial_below_degree_2n(n):
    from scipy.special import roots_legendre  # the reference, in this test only

    x, w = gauss_legendre(n)
    # sum_i w_i P_j(x_i) = integral of P_j over [-1, 1] = 2 delta_j0 for j < 2n
    moments = np.empty(2 * n)
    below, p = np.ones(n), x
    moments[0] = w.sum()
    for j in range(1, 2 * n):
        moments[j] = w @ p
        below, p = p, ((2 * j + 1) * x * p - j * below) / (j + 1)
    moments[0] -= 2.0
    assert np.max(np.abs(moments)) <= 2e-15
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.all(w > 0)
    assert np.max(np.abs(x - roots_legendre(n)[0])) <= 1e-15


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, "4"])
def test_gauss_legendre_rejects_bad_node_counts(n):
    with pytest.raises(ValidationError):
        gauss_legendre(n)


def test_gauss_legendre_is_cached_and_readonly():
    x, w = gauss_legendre(5)
    assert gauss_legendre(np.int64(5))[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_hermite_low_orders():
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(hermite(0, x), np.ones_like(x))
    np.testing.assert_allclose(hermite(1, x), x)
    np.testing.assert_allclose(hermite(2, x), x**2 - 1.0, atol=1e-12)
    np.testing.assert_allclose(hermite(3, x), x**3 - 3.0 * x, atol=1e-12)


def wavefunction(k, x):
    """<x|k>: the one row of level k."""
    return level_rows(k, x, k)[0]


def test_oscillator_wavefunctions_orthonormal():
    x = np.linspace(-25.0, 25.0, 6001)
    psi = level_rows(4, x)
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=-1)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


def test_wavefunctions_match_the_factorial_formula():
    # The normalised recurrence against (2 pi)^(-1/4) He_k e^(-x^2/4) / sqrt(k!)
    # wherever the latter is finite; measured 1.2e-15 for k <= 40.
    x = default_real_grid(40)
    for k in range(41):
        direct = ((2.0 * math.pi) ** -0.25 * hermite(k, x) * np.exp(-0.25 * x * x)
                  / math.sqrt(math.factorial(k)))
        np.testing.assert_allclose(wavefunction(k, x), direct,
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("k", [171, 200])
def test_wavefunctions_past_the_factorial_overflow(k):
    # sqrt(k!) overflows from k = 171; the recurrence never forms it.
    # Measured on the default grid at k = 200: norm 1 + 3.4e-9.
    x = default_real_grid(k)
    psi = wavefunction(k, x)
    assert float(np.trapezoid(psi * psi, x)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("k_max,x,s", [
    (1000, (55.0, 62.0, 70.0), 0.0), (2000, (-80.0, 85.0), 0.0),
    (800, (50.0,), 0.0), (600, (56.0,), 0.0), (60, (60.0,), 0.3)])
def test_rows_past_the_seed_underflow_against_a_40_digit_recurrence(k_max, x, s):
    # e^(-x^2/(4 a^2)) leaves the normal floats past |x| = 53.2 a, where level
    # 1000 (turning point 63.3) is O(0.1) at 55; those rows came out 0.  The
    # same recurrence in 40 digits (numpy's Gauss-Hermite rule at s > 0, where
    # the rows are the test oracle's) stands against each point's whole stack;
    # measured at most 1.1e-13 of its largest entry.
    mpmath = pytest.importorskip("mpmath")
    rows = (node_rule_rows(k_max, np.array(x), s) if s > 0.0
            else level_rows(k_max, np.array(x))[:, None])
    nodes, weights = ((np.zeros(1), np.full(1, math.sqrt(math.pi))) if s == 0.0
                      else np.polynomial.hermite.hermgauss(k_max + 1))
    exact = np.empty(rows.shape)
    with mpmath.workdps(40):
        a2 = 1 + mpmath.mpf(s) ** 2
        for p, point in enumerate(x):
            for j, (t, w) in enumerate(zip(nodes.tolist(), weights.tolist())):
                y = point / a2 + mpmath.mpf(s) * mpmath.sqrt(2 / a2) * t
                below, row = 0, (mpmath.sqrt(w / mpmath.sqrt(mpmath.pi * a2))
                                 * (2 * mpmath.pi) ** mpmath.mpf(-0.25)
                                 * mpmath.exp(-mpmath.mpf(point) ** 2 / (4 * a2)))
                for k in range(k_max + 1):
                    exact[k, j, p] = float(row)
                    below, row = row, (y * row - mpmath.sqrt(k) * below) / mpmath.sqrt(k + 1)
    for p in range(len(x)):
        largest = np.max(np.abs(exact[..., p]))
        assert largest > 0.0
        assert np.max(np.abs(rows[..., p] - exact[..., p])) <= 1e-12 * largest


def test_top_row_at_a_point_past_the_seed_underflow():
    # A scalar x and k_min = k_max: level 1000 at 55 and level 2000 at 80,
    # inside their bands, were 0.0.  Values from the 40-digit recurrence.
    assert level_rows(1000, 55.0, 1000)[0] == pytest.approx(0.012259420043312243, rel=1e-12)
    assert level_rows(2000, 80.0, 2000)[0] == pytest.approx(0.05972490861582093, rel=1e-12)


def unit_mass(kernel, x) -> bool:
    return bool(np.all(np.isfinite(kernel))) and abs(np.trapezoid(kernel, x) - 1.0) <= 1e-9


def test_wide_kernels_at_high_levels_have_unit_mass():
    # The width-0.3 density of |k> is the kernel K_kk.  A former Hermite series
    # overflowed at level 75; Gauss-Hermite rows held it, but numpy's 371-node
    # rule (level 370) has all-zero weights, so the rows stopped at level 369.
    for k in (75, 99, 370, 2000):
        density = limit_density_alpha_half(LimitState(coeffs=np.eye(k + 1)[k], width=0.3))
        assert unit_mass(density.density, density.grid), k


def test_wide_kernels_match_quadrature_of_the_convolution():
    # The former Hermite series missed this by 3.8e-9 at levels 20-22 and
    # width 0.3; the oracle's Gauss-Hermite rule is exact up to roundoff, and
    # so is the density of (|k> + |l>) / sqrt(2), the inverse transform of its
    # characteristic function: (K_kk + K_ll) / 2 + K_kl.
    from scipy.integrate import quad

    s = 0.3
    x = np.linspace(-60.0, 60.0, 41)

    def psi(k, y):
        return (2.0 * math.pi) ** -0.25 * float(hermite(k, y)) * math.exp(-0.25 * y * y) \
            / math.sqrt(math.factorial(k))

    for k, l in ((20, 22), (21, 21)):
        kernel = pair_kernel(k, l, x, s)
        coeffs = np.zeros(l + 1)
        coeffs[[k, l]] = 1.0
        state = LimitState(coeffs=coeffs / np.linalg.norm(coeffs), phi=-math.pi, width=s)
        density = limit_density_alpha_half(state, x).density
        mixed = (pair_kernel(k, k, x, s) + pair_kernel(l, l, x, s)) / 2.0 + kernel
        assert np.max(np.abs(density - (kernel if k == l else mixed))) <= 1e-14
        for xi, value in zip(x, kernel):
            def integrand(y, xi=xi, k=k, l=l):
                return (math.exp(-0.5 * ((xi - y) / s) ** 2) / (math.sqrt(2.0 * math.pi) * s)
                        * psi(k, y) * psi(l, y))

            centre = xi / (1.0 + s * s)
            exact = sum(quad(integrand, centre + lo, centre + hi, epsabs=1e-17, epsrel=1e-13,
                             limit=400)[0]
                        for lo, hi in ((-30.0, -10.0), (-10.0, 0.0), (0.0, 10.0), (10.0, 30.0)))
            assert abs(value - exact) <= 1e-14


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_kernels_reject_non_finite_widths(s):
    # Without the finite check of the former series a NaN width gave NaN
    # densities and no error.
    with pytest.raises(ValidationError, match="finite s"):
        limit_density_alpha_half(LimitState(coeffs=[0.6, 0.8], width=s),
                                 grid=np.linspace(-10.0, 10.0, 101))


def test_default_grid_resolves_high_levels():
    # 4001 points up to level 1955, then sqrt(2) points per half wavelength
    # of the top level over its band; over +-(12 + 2 k_max) the 4001 points
    # lasted to level 166, and level 250 integrated to 0.9645 on them.
    assert default_real_grid(1955).size == 4001
    assert default_real_grid(1956).size > 4001
    coeffs = np.zeros(2001)
    coeffs[2000] = 1.0
    density = limit_density_alpha_half(LimitState(coeffs=coeffs))
    assert density.grid.size == 4087
    assert density.integral() == pytest.approx(1.0, abs=1e-9)


def test_wide_smearing_stays_inside_the_band():
    # The band widens by sqrt(1 + s^2): at width 3 the smeared top level of a
    # 300-level state is still negligible at the default grid's edges.
    coeffs = np.zeros(301)
    coeffs[300] = 1.0
    density = limit_density_alpha_half(LimitState(coeffs=coeffs, width=3.0)).density
    assert max(density[0], density[-1]) <= BOUNDARY_MASS_TOL


def test_density_is_the_same_in_blocks_of_points(monkeypatch):
    # 12 levels take 12 floats of rows per point: a budget of 5000 takes the
    # 4001 points of the width-0 grid in blocks of 416, bit for bit.  At width
    # 0.3 a budget of 240 takes the 259-point lattice of the transform in
    # blocks of 20 and the grid in blocks of 1 (128 floats of powers a point);
    # the GEMMs of other shapes moved no value by more than 1.1e-16.
    import macrobell.limits as limits

    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    for width, budget, tol in ((0.0, 5000, 0.0), (0.3, 240, 1e-15)):
        state = LimitState(coeffs=coeffs / np.linalg.norm(coeffs), width=width)
        whole = limit_density_alpha_half(state).density
        monkeypatch.setattr(limits, "ROW_BLOCK_FLOATS", budget)
        assert np.max(np.abs(limit_density_alpha_half(state).density - whole)) <= tol
        monkeypatch.undo()


def test_undersampled_default_grid_is_a_numeric_error(monkeypatch):
    import macrobell.limits as limits

    # A default grid of 15 points over +-21 misses unit mass by 0.30.
    monkeypatch.setattr(limits, "default_real_grid",
                        lambda k_max, width=0.0: np.linspace(-21.0, 21.0, 15))
    with pytest.raises(NumericError, match="integrates"):
        limit_density_alpha_half(LimitState(coeffs=[0.6, 0.0, 0.8]))
    # A caller's grid is the caller's to judge.
    coarse = limit_density_alpha_half(LimitState(coeffs=[0.0, 1.0]),
                                      grid=np.linspace(-14.0, 14.0, 11))
    assert abs(coarse.integral() - 1.0) > 1e-6


def test_level_1000_has_unit_mass_on_its_default_grid():
    # The rows underflowed past |x| = 53.2, inside level 1000's band, and the
    # density integrated to 0.66 on its own grid.  Measured 1 - 2.4e-14 on
    # 4001 points over its band (1 - 1.2e-13 on 57 298 over +-2012).
    coeffs = np.zeros(1001)
    coeffs[1000] = 1.0
    density = limit_density_alpha_half(LimitState(coeffs=coeffs))
    assert density.grid.size == 4001
    assert density.integral() == pytest.approx(1.0, abs=1e-12)


def test_kernel_reduces_to_wavefunction_product_at_zero_width():
    x = np.linspace(-8.0, 8.0, 101)
    for k, l in [(0, 0), (1, 2), (3, 4)]:
        direct = wavefunction(k, x) * wavefunction(l, x)
        np.testing.assert_allclose(
            pair_kernel(k, l, x, 0.0), direct, atol=1e-12)


def test_smeared_series_approaches_wavefunction_products():
    # The s > 0 kernels at a width where they must equal the s = 0 products
    # to O(s^2) = 1e-12; measured 1.4e-12 at the rank cap (the former
    # Hermite series: 3.6e-11).
    x = np.linspace(-42.0, 42.0, 801)
    gap = np.max(np.abs(kernels(15, x, 1e-6) - kernels(15, x, 0.0)))
    assert gap <= 1e-11


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_level_kernel_stack_entries_are_pair_kernels(s):
    x = np.linspace(-20.0, 20.0, 201)
    rows = node_rule_rows(7, x, s)
    assert rows.shape == (8, 8 if s > 0.0 else 1, x.size)
    np.testing.assert_array_equal(node_rule_rows(7, x, s, 3), rows[3:])
    np.testing.assert_array_equal(level_rows(7, x, 3), level_rows(7, x)[3:])
    if s == 0.0:  # the oracle's one-node rows are the package's
        np.testing.assert_array_equal(rows[:, 0], level_rows(7, x))
    stack = kernels(7, x, s)
    for k in range(8):
        for l in range(8):
            np.testing.assert_allclose(stack[k, l], pair_kernel(k, l, x, s),
                                       rtol=0.0, atol=1e-13)


def test_kernel_integrals_are_kronecker_delta():
    # int K^s_kl dx = delta_kl for every smearing width
    x = np.linspace(-30.0, 30.0, 8001)
    for s in (0.0, 0.5, 1.3):
        for k in range(4):
            for l in range(4):
                integral = float(np.trapezoid(pair_kernel(k, l, x, s), x))
                assert integral == pytest.approx(1.0 if k == l else 0.0,
                                                 abs=1e-9), (k, l, s)


def test_kernel_second_moment():
    x = np.linspace(-30.0, 30.0, 8001)
    for s in (0.0, 0.4, 1.0):
        for k in range(5):
            kernel = pair_kernel(k, k, x, s)
            m2 = float(np.trapezoid(kernel * x**2, x))
            assert m2 == pytest.approx(2 * k + 1 + s**2, abs=1e-8), (k, s)


def test_limit_density_normalizes_and_centers(sigma_x, params_x):
    state = LimitState(coeffs=np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
                       phi=math.pi)
    density = limit_density_alpha_half(state)
    assert density.integral() == pytest.approx(1.0, abs=1e-10)
    # the equal two-level superposition has mean +1 in this orientation
    assert density.mean() == pytest.approx(1.0, abs=1e-9)


def test_limit_density_mirrors_under_phase_flip():
    up = limit_density_alpha_half(
        LimitState(coeffs=np.array([1.0, 1.0]) / math.sqrt(2), phi=math.pi))
    down = limit_density_alpha_half(
        LimitState(coeffs=np.array([1.0, 1.0]) / math.sqrt(2), phi=0.0))
    np.testing.assert_allclose(up.density, down.density[::-1], atol=1e-12)


def test_w_state_limit_density_is_first_level():
    density = limit_density_alpha_half(LimitState(coeffs=np.array([0.0, 1.0])))
    x = density.grid
    expected = x**2 * np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(density.density, expected, atol=1e-12)


def test_grid_too_narrow_raises():
    with pytest.raises(GridTooNarrowError):
        limit_density_alpha_half(LimitState(coeffs=np.array([0.0, 1.0])),
                                 grid=np.linspace(-2.0, 2.0, 101))


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phases_are_rejected(phi):
    with pytest.raises(ValidationError):
        LimitState(coeffs=PAPER, phi=phi)
    with pytest.raises(ValidationError):
        limit_density_alpha_one(PAPER, phi)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda grid: limit_density_alpha_half(LimitState(coeffs=np.array([1.0])), grid),
    lambda grid: limit_density_alpha_one(np.array([1.0]), 0.0, grid),
    lambda grid: rotor_pushforward(limit_density_alpha_one(np.array([1.0]), 0.0), grid),
], ids=["alpha_half", "alpha_one", "pushforward"])
def test_non_finite_caller_grids_are_validation_errors(call, bad):
    with pytest.raises(ValidationError, match="grid must be a finite"):
        call(np.array([-0.5, bad, 0.5]))


@pytest.mark.parametrize("grid", [None, np.linspace(-12.0, 12.0, 401)], ids=["own", "given"])
def test_nan_density_raises_numeric_error(monkeypatch, grid):
    import macrobell.limits as limits

    def nan_rows(k_max, x, k_min=0):
        return np.full((k_max - k_min + 1, np.size(x)), np.nan)

    monkeypatch.setattr(limits, "level_rows", nan_rows)
    with pytest.raises(NumericError):
        limit_density_alpha_half(LimitState(coeffs=PAPER), grid)


def test_charfn_matches_density_transform():
    state = LimitState(coeffs=PAPER, phi=math.pi, width=0.6)
    density = limit_density_alpha_half(state)
    t_values = np.array([-2.0, -0.7, 0.0, 0.4, 1.7])
    chi = limit_charfn_alpha_half(state, t_values)
    for i, t in enumerate(t_values):
        direct = np.trapezoid(np.exp(1j * t * density.grid) * density.density,
                              density.grid)
        assert chi[i] == pytest.approx(direct, abs=1e-9), t


def test_charfn_at_zero_and_bound():
    chi0 = limit_charfn_alpha_half(LimitState(coeffs=PAPER), 0.0)
    assert chi0 == pytest.approx(1.0 + 0.0j, abs=1e-12)
    t = np.linspace(-6.0, 6.0, 61)
    chi = limit_charfn_alpha_half(LimitState(coeffs=PAPER), t)
    assert np.max(np.abs(chi)) <= 1.0 + 1e-10


def test_charfn_is_smeared_by_the_state_width():
    # At width 0.6 the law is the width-0 one convolved with N(0, 0.36),
    # i.e. sigma/tau = sqrt(1.36).
    t = np.linspace(-4.0, 4.0, 17)
    sharp = limit_charfn_alpha_half(LimitState(coeffs=[0.6, 0.8]), t)
    smeared = limit_charfn_alpha_half(LimitState(coeffs=[0.6, 0.8], width=0.6), t)
    np.testing.assert_allclose(smeared, np.exp(-0.18 * t**2) * sharp, rtol=0, atol=1e-15)
    assert limit_charfn_alpha_half(LimitState(coeffs=[0.6, 0.8], width=0.6), 1.0) \
        == pytest.approx(0.182 - 0.486j, abs=1e-3)


def _random_unit(levels, seed):
    c = np.random.default_rng(seed).normal(size=(levels, 2)) @ [1.0, 1j]
    return c / np.linalg.norm(c)


CHARFN_CASES = {
    "e14": (np.eye(15)[14], 12.0),
    "e15": (np.eye(16)[15], 12.0),
    "equal16": (np.full(16, 0.25), 12.0),
    "random24": (_random_unit(24, 1), 12.0),
    "random40": (_random_unit(40, 2), 12.0),
    "random60": (_random_unit(60, 3), 12.0),
    "paper-t100": (PAPER, 100.0),
    "equal16-t100": (np.full(16, 0.25), 100.0),
}


def _closed_form_charfn(coeffs, phi, t):
    """e^{-t^2/2} sum_n poly_n (-i t)^n with poly_n = sum_{k,l}
    Re(conj(b_k) b_l) c[k, l, n], b_k = c_k e^{i k phi}, and c the level-pair
    coefficients sqrt(k! l!) / (q! (k-q)! (l-q)!) at n = k + l - 2q, all
    in 120-digit arithmetic, where the cancelling terms keep their digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        b = [mpmath.mpc(complex(c)) * mpmath.expj(k * mpmath.mpf(phi))
             for k, c in enumerate(coeffs)]
        f = [mpmath.factorial(j) for j in range(len(b))]
        poly = [mpmath.mpf(0)] * (2 * len(b) - 1)
        for k, bk in enumerate(b):
            for l, bl in enumerate(b):
                w = mpmath.re(mpmath.conj(bk) * bl)
                for q in range(min(k, l) + 1 if w else 0):
                    poly[k + l - 2 * q] += (w * mpmath.sqrt(f[k] * f[l])
                                            / (f[q] * f[k - q] * f[l - q]))
        return np.array([complex(mpmath.exp(-mpmath.mpf(x) ** 2 / 2)
                                 * mpmath.polyval(poly[::-1], mpmath.mpc(0, -x)))
                         for x in t])


@pytest.mark.parametrize("case", sorted(CHARFN_CASES))
def test_charfn_matches_the_closed_form_in_high_precision(case):
    # The closed form's terms cancel (in doubles it is 5e-12 off for equal16
    # and useless past about 24 random levels), hence the 120 digits.
    coeffs, t_max = CHARFN_CASES[case]
    t = np.linspace(-t_max, t_max, 97)
    reference = _closed_form_charfn(coeffs, 0.4, t)
    chi = limit_charfn_alpha_half(LimitState(coeffs=coeffs, phi=0.4), t)
    assert np.max(np.abs(chi - reference)) <= 1e-14
    assert abs(limit_charfn_alpha_half(LimitState(coeffs=coeffs, phi=0.4), 0.0) - 1.0) <= 1e-15


@pytest.mark.parametrize("case", [c for c in sorted(CHARFN_CASES) if CHARFN_CASES[c][1] == 12.0])
def test_charfn_step_resolves_the_band(case):
    # h = 2 pi / (max|t| + 2 sqrt(2 k_max + 1) + 12): the Fourier sum of the
    # width-0 density at half that step moves no value by more than 1e-15.
    coeffs, t_max = CHARFN_CASES[case]
    state = LimitState(coeffs=coeffs, phi=0.4)
    t = np.linspace(-t_max, t_max, 97)
    step = math.pi / (t_max + 2.0 * math.sqrt(2.0 * state.k_max + 1.0) + 12.0)
    step = math.floor(step * 2.0**20) / 2.0**20  # exact grid points
    half = math.floor(real_half_width(state.k_max) / step)
    x = step * np.arange(-half, half + 1)
    finer = lattice_char_fn(x, step * limit_density_alpha_half(state, x).density, t)
    assert np.max(np.abs(limit_charfn_alpha_half(state, t) - finer)) <= 1e-15


def test_rotor_density_single_level_is_uniform():
    density = limit_density_alpha_one(np.array([1.0 + 0.0j]), 0.3)
    np.testing.assert_allclose(density.density, 1.0 / math.pi, atol=1e-12)
    assert density.integral() == pytest.approx(1.0, abs=1e-10)


def test_rotor_density_phase_offset_invariance():
    # only level differences enter; a common offset is a relabeling
    c = PAPER.copy()
    a = limit_density_alpha_one(c, 0.7)
    padded = np.concatenate([[0.0], c])  # same state, one level higher
    b = limit_density_alpha_one(padded, 0.7)
    np.testing.assert_allclose(a.density, b.density, atol=1e-12)


@given(st.integers(1, 4), st.integers(0, 8), st.floats(-math.pi, math.pi))
@settings(max_examples=30, deadline=None)
def test_rotor_density_normalization_random(d, seed, phi):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    c = c / np.linalg.norm(c)
    density = limit_density_alpha_one(c, phi)
    assert density.integral() == pytest.approx(1.0, abs=1e-9)
    assert np.all(density.density >= 0.0)


def test_pushforward_of_uniform_rotor_is_arcsine():
    rotor = limit_density_alpha_one(np.array([1.0 + 0.0j]), 0.0)
    pushed = rotor_pushforward(rotor)
    expected = 1.0 / (math.pi * np.sqrt(1.0 - pushed.grid**2))
    np.testing.assert_allclose(pushed.density, expected, rtol=1e-9)


def test_pushforward_rejects_endpoint_grid():
    rotor = limit_density_alpha_one(np.array([1.0 + 0.0j]), 0.0)
    with pytest.raises(ValidationError):
        rotor_pushforward(rotor, x_grid=np.linspace(-1.0, 1.0, 11))


def test_hermite_lemma_spot_values():
    assert verify_hermite_lemma(0, 0, 1.0, 1.0) <= 1e-12
    assert verify_hermite_lemma(2, 1, 0.5, 2.0) <= 1e-10
    assert verify_hermite_lemma(4, 4, 2.0, 0.5) <= 1e-9


def test_default_grids_are_increasing():
    for grid in (default_real_grid(3), default_rotor_grid()):
        assert np.all(np.diff(grid) > 0)


def test_grid_density_validation():
    with pytest.raises(ValidationError):
        GridDensity(grid=np.array([0.0, 0.0, 1.0]),
                    density=np.array([1.0, 1.0, 1.0]))
