"""Loss, channel, classical-readout-noise, and robustness-sweep tests."""

import math

import numpy as np
import pytest

from macrobell.bell import (
    BellConfig,
    correlators,
    sign_overlap_table,
)
from macrobell.errors import (
    DivergentWidthError,
    InvalidLossError,
    NumericError,
    SingularChannelError,
    ValidationError,
)
from macrobell.finite_n import (
    DickeSuperposition,
    brute_force_char_fn,
    char_fn_finite,
    pmf_finite,
)
from macrobell.limits import (
    GridDensity,
    LimitState,
    limit_density_alpha_half,
)
from macrobell.noise import (
    NoiseSpec,
    _smoothed_sign,
    dephase_povm,
    depolarize_povm,
    loss_char_fn_finite,
    loss_width,
    lossy_povm,
    noisy_chsh_sweep,
    noisy_limit_params,
)
from macrobell.povm import derive_params, validate_povm

from conftest import CHSH_OPTIMUM, PAPER_COEFFS
from grid_oracles import (
    bipartite_density,
    classical_noise_variance,
    convolve_classical_noise,
    convolve_values,
    kernel_profile,
    pair_kernel,
    signed_line_integral,
)


def w_state(n: int) -> DickeSuperposition:
    return DickeSuperposition(n_particles=n, base_level=1,
                              coeffs=np.array([1.0 + 0.0j]))


def grid_route_overlaps(k_max: int, s: float, eps: float, shape: str) -> np.ndarray:
    """Reference noisy sign-overlap table on a 4001-point grid.

    Samples each smeared kernel, convolves it with the noise density
    through a cubic spline, and integrates against sign with Simpson's
    rule; its own error reaches ~1e-8 at k_max = 7.
    """
    half = (12.0 + 2.0 * k_max) * math.sqrt(1.0 + s * s)
    grid = np.linspace(-half, half, 4001)
    table = np.zeros((k_max + 1, k_max + 1))
    for k in range(k_max + 1):
        for l in range(k, k_max + 1):
            values = pair_kernel(k, l, grid, s)
            g, v = convolve_values(grid, values, eps, shape)
            table[k, l] = table[l, k] = signed_line_integral(g, v)
    return table


def noisy_table(k_max: int, s: float, eps: float, shape: str):
    return sign_overlap_table(k_max, s, eps, _smoothed_sign(shape, eps)).values


class TestNoiseSpec:
    def test_defaults_are_clean(self):
        spec = NoiseSpec()
        assert spec.loss_p == 1.0 and not spec.is_singular

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan])
    def test_bad_loss(self, p):
        with pytest.raises(InvalidLossError):
            NoiseSpec(loss_p=p)

    @pytest.mark.parametrize("kwargs", [
        {"depol_lambda": -0.1},
        {"dephase_lambda": 1.2},
    ])
    def test_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            NoiseSpec(**kwargs)

    def test_singular_flags(self):
        assert NoiseSpec(depol_lambda=1.0).is_singular
        assert NoiseSpec(dephase_lambda=0.5).is_singular
        assert not NoiseSpec(depol_lambda=0.99, dephase_lambda=0.49).is_singular


class TestLoss:
    def test_no_loss_returns_width_bit_exactly(self, sigma_x, params_x):
        assert loss_width(params_x, 1.0) == params_x.s2

    def test_projective_half_detection(self, params_x):
        # sigma2 = tau = 1, s2 = 0: the law gives 2^1 - 1 = 1 exactly.
        assert loss_width(params_x, 0.5) == 1.0

    @pytest.mark.parametrize("p", [0.0, -1.0, 1.0001])
    def test_invalid_probability(self, params_x, p):
        with pytest.raises(InvalidLossError):
            loss_width(params_x, p)

    def test_divergent_width(self, params_x):
        with pytest.raises(DivergentWidthError):
            loss_width(params_x, 1e-13)

    def test_char_fn_matches_lossless_at_p_one(self, sigma_x, params_x):
        state = w_state(9)
        ts = np.linspace(-4.0, 4.0, 17)
        lossy = loss_char_fn_finite(state, sigma_x, params_x, 1.0, ts)
        clean = char_fn_finite(state, sigma_x, params_x, 0.5, ts)
        np.testing.assert_allclose(lossy, clean, atol=1e-12)

    def test_char_fn_scalar_and_origin(self, sigma_x, params_x):
        value = loss_char_fn_finite(w_state(6), sigma_x, params_x, 0.7, 0.0)
        assert isinstance(value, complex) and value == 1.0 + 0.0j

    def test_char_fn_rejects_bad_probability(self, sigma_x, params_x):
        with pytest.raises(InvalidLossError):
            loss_char_fn_finite(w_state(4), sigma_x, params_x, 0.0, 1.0)

    def test_char_fn_outside_the_unit_disc_is_a_numeric_error(self, sigma_x, params_x):
        # Inherited from pmf_finite: the lossy POVM is not projective, and the
        # inversion route's mid-ladder Dicke sums cancel (residue 8.5e37).
        state = DickeSuperposition(n_particles=400, base_level=200, coeffs=PAPER_COEFFS)
        with pytest.raises(NumericError, match="imaginary residue"):
            loss_char_fn_finite(state, sigma_x, params_x, 0.9, np.linspace(-6.0, 6.0, 241))

    @pytest.mark.parametrize("p", [0.35, 0.8])
    def test_char_fn_against_three_outcome_rewrite(self, sigma_x, params_x, p):
        # Losing a particle is the same measurement with a third, weight-mu
        # outcome of probability 1 - p; the Dicke-sum characteristic function
        # must match explicit 2^N enumeration of that measurement.
        state = DickeSuperposition(
            n_particles=8, base_level=0,
            coeffs=np.array([0.6, 0.0, 0.8j], dtype=complex))
        loss_povm, loss_params = lossy_povm(sigma_x, params_x, p)
        assert loss_povm.outcomes == (params_x.mu,) + sigma_x.outcomes
        ts = np.linspace(-5.0, 5.0, 21)
        direct = loss_char_fn_finite(state, sigma_x, params_x, p, ts)
        brute = brute_force_char_fn(state, loss_povm, loss_params, 0.5, ts)
        np.testing.assert_allclose(direct, brute, atol=1e-12)

    def test_char_fn_when_mu_is_an_outcome(self):
        # Unsharp x-binning with a null outcome 0 = mu: the missed-particle
        # effect (1 - p) I merges into the effect of 0.
        plus = 0.4 * (np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]]))
        povm = validate_povm([-1.0, 0.0, 1.0], [0.8 * np.eye(2) - plus,
                                                 0.2 * np.eye(2), plus])
        params = derive_params(povm)
        assert params.mu == 0.0
        p = 0.6
        loss_povm, loss_params = lossy_povm(povm, params, p)
        assert loss_povm.outcomes == povm.outcomes
        np.testing.assert_allclose(loss_povm.effects[1],
                                   (1.0 - p + 0.2 * p) * np.eye(2), atol=1e-15)
        assert loss_params.tau == pytest.approx(p * params.tau, rel=1e-15)
        state = DickeSuperposition.from_coeffs(7, [1.0, 0.5j, -0.3], base_level=2)
        ts = np.linspace(-4.0, 4.0, 17)
        direct = loss_char_fn_finite(state, povm, params, p, ts)
        brute = brute_force_char_fn(state, loss_povm, loss_params, 0.5, ts)
        np.testing.assert_allclose(direct, brute, atol=1e-12)

    @pytest.mark.parametrize("p", [0.25, 0.6, 1.0])
    def test_product_state_lossy_second_moment(self, sigma_x, params_x, p):
        # Ground-level product state under x-binning: every detected particle
        # contributes an independent +-1, so E[X^2] = 1/p at every N.
        state = DickeSuperposition(n_particles=12, base_level=0,
                                   coeffs=np.array([1.0 + 0.0j]))
        loss_povm, loss_params = lossy_povm(sigma_x, params_x, p)
        pmf = pmf_finite(state, loss_povm, loss_params, 0.5)
        m2 = float(np.sum(pmf.probs * pmf.values**2))
        assert m2 == pytest.approx(1.0 / p, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_single_excitation_lossy_second_moment(self, sigma_x, params_x,
                                                   p, n):
        # Exact finite-N law for the shared-excitation state: the detected
        # second moment is 1/p + 2 - 2/N, whose N -> infinity limit is
        # 1/p + 2, i.e. squared width 1/p + 1 on top of the Gaussian unit.
        loss_povm, loss_params = lossy_povm(sigma_x, params_x, p)
        pmf = pmf_finite(w_state(n), loss_povm, loss_params, 0.5)
        m2 = float(np.sum(pmf.probs * pmf.values**2))
        assert m2 == pytest.approx(1.0 / p + 2.0 - 2.0 / n, rel=1e-11)


class TestChannels:
    def test_zero_strength_is_identity(self, sigma_x):
        for transform in (depolarize_povm, dephase_povm):
            mapped = transform(sigma_x, 0.0)
            for before, after in zip(sigma_x.effects, mapped.effects):
                np.testing.assert_allclose(after, before, atol=1e-15)

    def test_depolarized_projector_closed_form(self, sigma_x):
        lam = 0.3
        mapped = depolarize_povm(sigma_x, lam)
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        for sign, effect in zip((1.0, -1.0), mapped.effects):
            expected = 0.5 * (np.eye(2) + sign * (1.0 - lam) * pauli_x)
            np.testing.assert_allclose(effect, expected, atol=1e-15)

    def test_dephased_projector_closed_form(self, sigma_x):
        lam = 0.2
        mapped = dephase_povm(sigma_x, lam)
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        for sign, effect in zip((1.0, -1.0), mapped.effects):
            expected = 0.5 * (np.eye(2) + sign * (1.0 - 2.0 * lam) * pauli_x)
            np.testing.assert_allclose(effect, expected, atol=1e-15)

    def test_bad_strength_rejected(self, sigma_x):
        for transform in (depolarize_povm, dephase_povm):
            with pytest.raises(ValidationError):
                transform(sigma_x, 1.0001)

    @pytest.mark.parametrize("lam", [0.1, 0.3])
    def test_depolarizing_width(self, sigma_x, lam):
        result = noisy_limit_params(sigma_x, NoiseSpec(depol_lambda=lam))
        assert result.s_squared == pytest.approx((1.0 - lam) ** -2 - 1.0,
                                                 rel=1e-12)
        assert result.phi == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 0.3])
    def test_dephasing_width(self, sigma_x, lam):
        result = noisy_limit_params(sigma_x, NoiseSpec(dephase_lambda=lam))
        assert result.s_squared == pytest.approx((1.0 - 2.0 * lam) ** -2 - 1.0,
                                                 rel=1e-12)
        assert result.phi == pytest.approx(math.pi, abs=1e-12)

    def test_strong_dephasing_flips_phase(self, sigma_x):
        result = noisy_limit_params(sigma_x, NoiseSpec(dephase_lambda=0.8))
        assert result.phi % (2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert result.s_squared == pytest.approx(0.6**-2 - 1.0, rel=1e-12)

    def test_clean_spec_reproduces_derive_params(self, sigma_x, params_x):
        result = noisy_limit_params(sigma_x, NoiseSpec())
        assert result.s_squared == params_x.s2
        assert result.phi == params_x.phi

    def test_singular_channels_raise(self, sigma_x):
        with pytest.raises(SingularChannelError):
            noisy_limit_params(sigma_x, NoiseSpec(depol_lambda=1.0))
        with pytest.raises(SingularChannelError):
            noisy_limit_params(sigma_x, NoiseSpec(dephase_lambda=0.5))

    def test_channel_maps_commute(self, sigma_x):
        forward = dephase_povm(depolarize_povm(sigma_x, 0.2), 0.3)
        backward = depolarize_povm(dephase_povm(sigma_x, 0.3), 0.2)
        for a, b in zip(forward.effects, backward.effects):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_loss_composes_after_channels(self, sigma_x):
        spec = NoiseSpec(loss_p=0.5, depol_lambda=0.1)
        combined = noisy_limit_params(sigma_x, spec)
        channel_params = derive_params(depolarize_povm(sigma_x, 0.1))
        assert combined.s_squared == loss_width(channel_params, 0.5)


class TestClassicalNoise:
    @pytest.mark.parametrize("shape", ["uniform", "truncated_gaussian"])
    def test_kernel_mass_and_variance(self, shape):
        eps = 0.37
        nodes, weights = np.polynomial.legendre.leggauss(200)
        r = eps * nodes
        w = eps * weights
        kernel = kernel_profile(shape, eps)(r)
        assert float(w @ kernel) == pytest.approx(1.0, abs=1e-12)
        assert float(w @ (kernel * r**2)) == pytest.approx(
            classical_noise_variance(eps, shape), abs=1e-12)

    @pytest.mark.parametrize("shape", ["uniform", "truncated_gaussian"])
    def test_smoothed_sign_is_sign_convolved_with_density(self, shape):
        # S(x) = int sign(x - r) n(r) dr = 2 * (mass of n below x) - 1.
        eps = 0.37
        nodes, weights = np.polynomial.legendre.leggauss(200)
        density = kernel_profile(shape, eps)
        for x in np.linspace(0.0, eps, 7):
            r = 0.5 * (x + eps) * (nodes + 1.0) - eps
            below = 0.5 * (x + eps) * float(weights @ density(r))
            assert _smoothed_sign(shape, eps)(x) == pytest.approx(2.0 * below - 1.0,
                                                                  abs=1e-13)

    def test_zero_eps_variance_and_identity(self):
        assert classical_noise_variance(0.0, "uniform") == 0.0
        density = limit_density_alpha_half(
            LimitState(coeffs=PAPER_COEFFS, phi=math.pi))
        assert convolve_classical_noise(density, 0.0) is density

    @pytest.mark.parametrize("shape,eps", [("uniform", 0.3),
                                           ("truncated_gaussian", 0.45)])
    def test_convolution_preserves_mass_and_adds_variance(self, shape, eps):
        density = limit_density_alpha_half(
            LimitState(coeffs=PAPER_COEFFS, phi=math.pi, width=0.2))
        noisy = convolve_classical_noise(density, eps, shape)
        assert noisy.integral() == pytest.approx(density.integral(), abs=1e-10)
        assert noisy.mean() == pytest.approx(density.mean(), abs=1e-10)
        expected = density.moment(2, central=True) + classical_noise_variance(eps, shape)
        assert noisy.moment(2, central=True) == pytest.approx(expected,
                                                              abs=1e-8)

    def test_convolution_widens_support(self):
        density = limit_density_alpha_half(
            LimitState(coeffs=np.array([1.0 + 0.0j]), phi=0.0))
        eps = 0.25
        noisy = convolve_classical_noise(density, eps)
        assert noisy.grid[0] <= density.grid[0] - eps
        assert noisy.grid[-1] >= density.grid[-1] + eps
        assert np.all(noisy.density >= 0.0)

    def test_rotor_domain_rejected(self):
        theta = np.linspace(0.0, math.pi, 101)
        rotor = GridDensity(theta, np.full(101, 1.0 / math.pi),
                            domain="rotor_half_circle")
        with pytest.raises(ValidationError):
            convolve_classical_noise(rotor, 0.1)


class TestSweep:
    def test_clean_cell_and_monotone_row(self):
        result = noisy_chsh_sweep(PAPER_COEFFS, np.linspace(0.0, 0.2, 5),
                                  np.array([0.0]))
        assert result.clean_value == pytest.approx(CHSH_OPTIMUM, abs=1e-6)
        assert result.chsh[0, 0] == pytest.approx(CHSH_OPTIMUM, abs=5e-9)
        row = result.chsh[0]
        assert np.all(np.diff(row) <= 1e-12)

    def test_threshold_detection(self):
        result = noisy_chsh_sweep(PAPER_COEFFS, np.linspace(0.0, 0.2, 11),
                                  np.array([0.0]))
        threshold = float(result.threshold_s[0])
        assert 0.08 < threshold < 0.13
        # CHSH is above 2 before the crossing and below after it.
        before = result.chsh[0][result.s_grid < threshold - 0.02]
        after = result.chsh[0][result.s_grid > threshold + 0.02]
        assert np.all(before > 2.0) and np.all(after < 2.0)

    def test_no_crossing_marked_nan(self):
        result = noisy_chsh_sweep(PAPER_COEFFS, np.array([0.0, 0.02]),
                                  np.array([0.0]))
        assert math.isnan(float(result.threshold_s[0]))

    def test_classical_noise_degrades_value(self):
        result = noisy_chsh_sweep(PAPER_COEFFS, np.array([0.0]),
                                  np.array([0.0, 0.2, 0.4]))
        column = result.chsh[:, 0]
        assert np.all(np.diff(column) < 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            noisy_chsh_sweep(PAPER_COEFFS, np.array([-0.1]), np.array([0.0]))
        with pytest.raises(ValidationError):
            noisy_chsh_sweep(PAPER_COEFFS, np.array([0.1]), np.array([0.0]),
                             shape="spiky")
        with pytest.raises(ValidationError):
            noisy_chsh_sweep(np.array([0.6, 0.6]), np.array([0.0]),
                             np.array([0.0]))

    @pytest.mark.parametrize("coeffs", [
        PAPER_COEFFS, np.full(8, 8**-0.5, dtype=complex),
        np.full(16, 0.25, dtype=complex)], ids=["paper", "equal8", "equal16"])
    def test_clean_cell_is_clean_value(self, coeffs):
        result = noisy_chsh_sweep(coeffs, np.array([0.0, 0.1]),
                                  np.array([0.0, 0.1]))
        assert result.chsh[0, 0] == result.clean_value

    @pytest.mark.parametrize("shape", ["uniform", "truncated_gaussian"])
    @pytest.mark.parametrize("s,eps", [(0.0, 0.25), (0.3, 0.0), (0.3, 0.25)])
    @pytest.mark.parametrize("k_max", [2, 7])
    def test_tables_match_grid_route(self, k_max, s, eps, shape):
        # The grid route is the looser of the two: at k_max = 7, s = 0 its
        # (6, 7) entry is off by 1.06e-8 from adaptive quadrature (see the
        # next test), so the bound is 2e-8 rather than 1e-8.
        gap = np.max(np.abs(noisy_table(k_max, s, eps, shape)
                            - grid_route_overlaps(k_max, s, eps, shape)))
        assert gap <= 2e-8

    @pytest.mark.parametrize("shape,k_max,s,pairs,bound", [
        pytest.param(shape, *case, id=prefix + shape)
        for prefix, case in (("", (7, 0.0, ((0, 7), (6, 7), (2, 5)), 1e-12)),
                             ("rank16-", (15, 0.3, ((0, 15), (14, 15), (7, 10)), 1e-12)))
        for shape in ("uniform", "truncated_gaussian")])
    def test_table_entries_against_adaptive_quadrature(self, shape, k_max, s, pairs, bound):
        from scipy.integrate import quad

        eps = 0.25
        table = noisy_table(k_max, s, eps, shape)
        ramp = _smoothed_sign(shape, eps)
        for k, l in pairs:
            def integrand(x, k=k, l=l):
                kernel = pair_kernel(k, l, np.array([x]), s)[0]
                return kernel * (float(ramp(x)) if x < eps else 1.0)

            exact = 2.0 * sum(quad(integrand, lo, hi, epsabs=1e-15, limit=200)[0]
                              for lo, hi in ((0.0, eps), (eps, 40.0)))
            assert table[k, l] == pytest.approx(exact, abs=bound)

    def test_factorized_cell_matches_two_dimensional_route(self):
        # Regression for the sweep's factorization: one noisy cell evaluated
        # through the full joint density -- smear both parties, convolve the
        # classical kernel along both axes, sign-bin -- must agree with the
        # kernel-overlap reduction the sweep actually computes.
        s, eps, shape = 0.3, 0.25, "uniform"
        k_max = PAPER_COEFFS.size - 1

        overlaps = sign_overlap_table(k_max, s, eps, _smoothed_sign(shape, eps))
        factorized = correlators(BellConfig(schmidt_coeffs=PAPER_COEFFS, phi_a=0.15,
                                            phi_b=-0.4), overlaps)[0]

        half = (12.0 + 2.0 * k_max) * math.sqrt(1.0 + s * s)
        grid = np.linspace(-half, half, 1201)
        joint = bipartite_density(
            BellConfig(schmidt_coeffs=PAPER_COEFFS, phi_a=0.15, phi_b=-0.4),
            x_grid=grid, y_grid=grid, width_a=s, width_b=s)

        columns = [convolve_values(grid, joint.density[:, j], eps, shape)
                   for j in range(grid.size)]
        x_ext = columns[0][0]
        stage = np.stack([v for _, v in columns], axis=1)
        rows = [convolve_values(grid, stage[i], eps, shape)
                for i in range(x_ext.size)]
        y_ext = rows[0][0]
        noisy = np.stack([v for _, v in rows], axis=0)

        direct = float(signed_line_integral(
            x_ext, signed_line_integral(y_ext, noisy, axis=1), axis=0))
        assert direct == pytest.approx(factorized, abs=1e-6)
