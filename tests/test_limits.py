"""Limit densities, kernels, and the oscillator machinery behind them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobell.errors import GridTooNarrowError, NumericError, ValidationError
from macrobell.finite_n import lattice_char_fn
from macrobell.limits import (
    GridDensity,
    LimitState,
    default_real_grid,
    default_rotor_grid,
    gauss_legendre,
    hermite,
    level_kernels,
    limit_charfn_alpha_half,
    limit_density_alpha_half,
    limit_density_alpha_one,
    oscillator_wavefunction,
    real_half_width,
    rotor_pushforward,
    smeared_level_kernel,
    verify_hermite_lemma,
)

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


def test_oscillator_wavefunctions_orthonormal():
    x = np.linspace(-25.0, 25.0, 6001)
    psi = np.stack([oscillator_wavefunction(k, x) for k in range(5)])
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=-1)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


def test_wavefunctions_match_the_factorial_formula():
    # The normalised recurrence against (2 pi)^(-1/4) He_k e^(-x^2/4) / sqrt(k!)
    # wherever the latter is finite; measured 1.2e-15 for k <= 40.
    x = default_real_grid(40)
    for k in range(41):
        direct = ((2.0 * math.pi) ** -0.25 * hermite(k, x) * np.exp(-0.25 * x * x)
                  / math.sqrt(math.factorial(k)))
        np.testing.assert_allclose(oscillator_wavefunction(k, x), direct,
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("k", [171, 200])
def test_wavefunctions_past_the_factorial_overflow(k):
    # sqrt(k!) overflows from k = 171; the recurrence never forms it.
    # Measured on the default grid at k = 200: norm 1 + 3.4e-9.
    x = default_real_grid(k)
    psi = oscillator_wavefunction(k, x)
    assert float(np.trapezoid(psi * psi, x)) == pytest.approx(1.0, abs=1e-8)


def unit_mass(kernel, x) -> bool:
    return bool(np.all(np.isfinite(kernel))) and abs(np.trapezoid(kernel, x) - 1.0) <= 1e-9


def test_wide_kernels_at_high_levels_raise_numeric_error():
    # The Gauss-Hermite rows hold levels 75 and 99 at width 0.3, where the
    # former Hermite series overflowed; numpy's 371-node rule (level 370)
    # has all-zero weights and is rejected before any row is built.
    for k in (75, 99):
        x = default_real_grid(k, width=0.3)
        assert unit_mass(level_kernels(k, x, 0.3, k)[0, 0], x)
    with pytest.raises(NumericError, match="level 370"):
        level_kernels(370, np.linspace(-1.0, 1.0, 5), 0.3, 370)


def test_overflowing_pair_kernel_raises_numeric_error():
    # The per-pair path reads the same rows: it returned 1182 NaN of 4001
    # entries here under the Hermite series.
    x = default_real_grid(75, width=0.3)
    assert unit_mass(smeared_level_kernel(75, 75, x, 0.3), x)


def test_wide_kernels_match_quadrature_of_the_convolution():
    # The former Hermite series missed this by 3.8e-9 at levels 20-22 and
    # width 0.3; the Gauss-Hermite rule is exact up to roundoff.
    from scipy.integrate import quad

    s = 0.3
    x = np.linspace(-60.0, 60.0, 41)

    def psi(k, y):
        return (2.0 * math.pi) ** -0.25 * float(hermite(k, y)) * math.exp(-0.25 * y * y) \
            / math.sqrt(math.factorial(k))

    for k, l in ((20, 22), (21, 21)):
        kernel = smeared_level_kernel(k, l, x, s)
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
        level_kernels(2, np.linspace(-5.0, 5.0, 11), s)
    with pytest.raises(ValidationError, match="finite s"):
        limit_density_alpha_half(LimitState(coeffs=[0.6, 0.8], width=s),
                                 grid=np.linspace(-10.0, 10.0, 101))


def test_default_grid_resolves_high_levels():
    # 4001 points up to level 166, then sqrt(2) points per half wavelength
    # of the top level; level 250 integrated to 0.9645 on 4001 points.
    assert default_real_grid(166).size == 4001
    assert default_real_grid(167).size == 4033
    coeffs = np.zeros(251)
    coeffs[250] = 1.0
    density = limit_density_alpha_half(LimitState(coeffs=coeffs))
    assert density.integral() == pytest.approx(1.0, abs=1e-9)


def test_undersampled_default_grid_is_a_numeric_error():
    # Level 1000: the wavefunction rows underflow at the grid's edge and
    # the density integrates to 0.66 on its own grid.
    coeffs = np.zeros(1001)
    coeffs[1000] = 1.0
    with pytest.raises(NumericError, match="integrates"):
        limit_density_alpha_half(LimitState(coeffs=coeffs))
    # A caller's grid is the caller's to judge.
    coarse = limit_density_alpha_half(LimitState(coeffs=[0.0, 1.0]),
                                      grid=np.linspace(-14.0, 14.0, 11))
    assert abs(coarse.integral() - 1.0) > 1e-6


def test_kernel_reduces_to_wavefunction_product_at_zero_width():
    x = np.linspace(-8.0, 8.0, 101)
    for k, l in [(0, 0), (1, 2), (3, 4)]:
        direct = oscillator_wavefunction(k, x) * oscillator_wavefunction(l, x)
        np.testing.assert_allclose(
            smeared_level_kernel(k, l, x, 0.0), direct, atol=1e-12)


def test_smeared_series_approaches_wavefunction_products():
    # The s > 0 kernels at a width where they must equal the s = 0 products
    # to O(s^2) = 1e-12; measured 1.4e-12 at the rank cap (the former
    # Hermite series: 3.6e-11).
    x = np.linspace(-42.0, 42.0, 801)
    gap = np.max(np.abs(level_kernels(15, x, 1e-6) - level_kernels(15, x, 0.0)))
    assert gap <= 1e-11


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_level_kernel_stack_entries_are_pair_kernels(s):
    x = np.linspace(-20.0, 20.0, 201)
    stack = level_kernels(7, x, s)
    assert stack.shape == (8, 8, x.size)
    np.testing.assert_array_equal(level_kernels(7, x, s, 3), stack[3:, 3:])
    for k in range(8):
        for l in range(8):
            np.testing.assert_allclose(stack[k, l], smeared_level_kernel(k, l, x, s),
                                       rtol=0.0, atol=1e-13)


def test_kernel_integrals_are_kronecker_delta():
    # int K^s_kl dx = delta_kl for every smearing width
    x = np.linspace(-30.0, 30.0, 8001)
    for s in (0.0, 0.5, 1.3):
        for k in range(4):
            for l in range(4):
                integral = float(np.trapezoid(smeared_level_kernel(k, l, x, s), x))
                assert integral == pytest.approx(1.0 if k == l else 0.0,
                                                 abs=1e-9), (k, l, s)


def test_kernel_second_moment():
    x = np.linspace(-30.0, 30.0, 8001)
    for s in (0.0, 0.4, 1.0):
        for k in range(5):
            kernel = smeared_level_kernel(k, k, x, s)
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


@pytest.mark.parametrize("grid", [None, np.linspace(-12.0, 12.0, 401)], ids=["own", "given"])
def test_nan_density_raises_numeric_error(monkeypatch, grid):
    import macrobell.limits as limits

    def nan_rows(k_max, x, s, k_min):
        return np.full((k_max - k_min + 1, 1, np.size(x)), np.nan)

    monkeypatch.setattr(limits, "_level_rows", nan_rows)
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
