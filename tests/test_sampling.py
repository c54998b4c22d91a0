"""Exact sampler, KS distance, and variance-scaling tests."""

import math

import numpy as np
import pytest

from macrobell.errors import CapExceededError, NumericError, ValidationError
from macrobell.finite_n import (DEFAULT_LATTICE_CAP, DickeSuperposition, brute_force_pmf,
                                pmf_finite)
from macrobell.limits import LimitState, limit_density_alpha_half
from macrobell.noise import depolarize_povm, lossy_povm
from macrobell.povm import (PAULI_X, PAULI_Z, common_eigenbasis, derive_params,
                            projective_from_bloch, validate_povm)
from macrobell.sampling import (
    SampleBatch,
    ks_distance,
    sample_outcomes,
    scaling_exponent,
)

from conftest import PAPER_COEFFS
from window_sampler import window_sample


def paper_state(n: int) -> DickeSuperposition:
    return DickeSuperposition(n_particles=n, base_level=0, coeffs=PAPER_COEFFS)


def random_state(n: int, d: int, seed: int) -> DickeSuperposition:
    """``d`` levels from level 0 with random complex coefficients."""
    rng = np.random.default_rng(seed)
    return DickeSuperposition.from_coeffs(n, rng.normal(size=d) + 1j * rng.normal(size=d))


def single_level(n: int, k: int = 0) -> DickeSuperposition:
    return DickeSuperposition(n_particles=n, base_level=k,
                              coeffs=np.array([1.0 + 0.0j]))


def chi2_bound(dof: int) -> float:
    """The acceptance bound of criterion 10: dof + 5 sqrt(2 dof)."""
    return dof + 5.0 * math.sqrt(2.0 * dof)


def lattice_pearson(pmf, values):
    """Pearson chi-square of records against a lattice PMF.

    Cells expected below 5 are pooled into one tail cell.  Returns
    (chi2, dof, distance of the farthest record from its lattice point).
    """
    indices = np.clip(np.searchsorted(pmf.values, values), 0, pmf.values.size - 1)
    left = np.maximum(indices - 1, 0)
    use_left = (np.abs(pmf.values[left] - values)
                < np.abs(pmf.values[indices] - values))
    indices[use_left] = left[use_left]
    off_lattice = float(np.max(np.abs(pmf.values[indices] - values)))

    counts = np.bincount(indices, minlength=pmf.values.size)
    expected = pmf.probs * values.size
    keep = expected >= 5.0
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    tail = float(values.size - expected[keep].sum())
    if tail > 0:
        chi2 += (counts[~keep].sum() - tail) ** 2 / tail
    dof = int(keep.sum())  # lumped tail adds one cell, minus one constraint
    return chi2, dof, off_lattice


def two_sample_pearson(first, second):
    """Two-sample chi-square of two record sets on a shared lattice.

    Values are matched to 1e-9; values seen fewer than 10 times in total
    are pooled into one cell.  Returns (chi2, dof).
    """
    support = np.unique(np.round(np.concatenate([first, second]), 9))
    a = np.bincount(np.searchsorted(support, np.round(first, 9)),
                    minlength=support.size)
    b = np.bincount(np.searchsorted(support, np.round(second, 9)),
                    minlength=support.size)
    rare = a + b < 10
    a = np.append(a[~rare], a[rare].sum())
    b = np.append(b[~rare], b[rare].sum())
    used = a + b > 0
    a, b = a[used], b[used]
    ratio = math.sqrt(second.size / first.size)
    chi2 = float(np.sum((ratio * a - b / ratio) ** 2 / (a + b)))
    return chi2, int(used.sum()) - 1


def trine():
    """Three outcomes with Bloch vectors 120 degrees apart: no common eigenbasis."""
    eye = np.eye(2, dtype=complex)
    effects = [(eye + math.cos(a) * PAULI_Z + math.sin(a) * PAULI_X) / 3.0
               for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    return validate_povm([-1.0, 0.0, 1.0], effects)


class TestSampler:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_population_binning_is_deterministic(self, sigma_z, k):
        # Counting excitations of |N, k> always scores N - 2k, so every
        # record equals (N - 2k)/sqrt(N) even though individual particle
        # outcomes are random.
        n = 12
        params = derive_params(sigma_z, mu=0.0, tau=1.0)
        batch = sample_outcomes(single_level(n, k), sigma_z, params, 0.5,
                                n_samples=64, seed=5)
        expected = (n - 2.0 * k) / n**0.5
        np.testing.assert_allclose(batch.values, expected, rtol=1e-13)

    def test_same_seed_reproduces_and_seeds_differ(self, sigma_x, params_x):
        state = paper_state(16)
        a = sample_outcomes(state, sigma_x, params_x, 0.5, 100, seed=7)
        b = sample_outcomes(state, sigma_x, params_x, 0.5, 100, seed=7)
        c = sample_outcomes(state, sigma_x, params_x, 0.5, 100, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_prefix_stability(self, sigma_x, params_x):
        # Sample i is a fixed function of (seed, i): growing the batch must
        # not disturb the records already drawn.
        state = paper_state(20)
        short = sample_outcomes(state, sigma_x, params_x, 0.5, 50, seed=3)
        long = sample_outcomes(state, sigma_x, params_x, 0.5, 120, seed=3)
        assert np.array_equal(short.values, long.values[:50])

    def test_samples_match_exact_distribution(self, sigma_x, params_x):
        # Pearson test against the exact lattice distribution at small N.
        state = paper_state(10)
        pmf = pmf_finite(state, sigma_x, params_x, 0.5)
        n_samples = 20000
        batch = sample_outcomes(state, sigma_x, params_x, 0.5, n_samples,
                                seed=2026)

        chi2, dof, off_lattice = lattice_pearson(pmf, batch.values)
        # Every record must sit on the exact outcome lattice.
        assert off_lattice < 1e-9
        assert chi2 < chi2_bound(dof)

    @pytest.mark.parametrize("shift, spread, n, depol", [
        (1e3, 1e-9, 10**5, 0.0), (1e3, 1e-6, 10**3, 0.0), (1e3, 1e-6, 10**3, 0.2)])
    def test_relabelled_records_sit_on_the_exact_lattice(self, sigma_x, shift, spread, n,
                                                         depol):
        # Outcomes shift +- spread: the records took counts @ outcomes - N mu and
        # landed up to 3.1e-3 (1e-9 at N = 1e5) and 3.4e-6 (1e-6) off the lattice.
        povm = depolarize_povm(validate_povm([shift + spread, shift - spread],
                                             sigma_x.effects), depol)
        params, state = derive_params(povm), paper_state(n)
        batch = sample_outcomes(state, povm, params, 0.5, 2000, seed=4)
        assert np.all(np.isin(batch.values, pmf_finite(state, povm, params, 0.5).values))

    def test_full_coarse_graining_support(self, sigma_x, params_x):
        from macrobell.finite_n import moments_finite

        state = paper_state(40)
        n_samples = 500
        batch = sample_outcomes(state, sigma_x, params_x, 1.0, n_samples,
                                seed=1)
        assert np.max(np.abs(batch.values)) <= 1.0 + 1e-12
        moments = moments_finite(state, sigma_x, params_x, 1.0, order=2)
        z = ((float(batch.values.mean()) - moments.raw[1])
             / math.sqrt(moments.central[2] / n_samples))
        assert abs(z) < 5.0

    def test_converges_to_limit_law(self, sigma_x, params_x):
        state = DickeSuperposition(n_particles=400, base_level=1,
                                   coeffs=np.array([1.0 + 0.0j]))
        batch = sample_outcomes(state, sigma_x, params_x, 0.5, 4000, seed=11)
        limit = limit_density_alpha_half(
            LimitState(coeffs=np.array([0.0, 1.0], dtype=complex),
                       phi=params_x.phi))
        assert ks_distance(batch, limit.cdf) < 0.05


def oracle_povm(name: str):
    """POVM and parameters for the oracle comparisons, by route."""
    sx = projective_from_bloch(math.pi / 2.0, 0.0)
    if name == "tilted":
        povm = projective_from_bloch(1.2, 0.3)
    elif name == "depolarized":
        povm = depolarize_povm(sx, 0.2)
    elif name == "lossy":
        return lossy_povm(sx, derive_params(sx), 0.7)
    elif name == "identity-index-sum":
        # (P/2, Q, P/2) at outcomes 0, 1, 3: sum_a a_index E_a = P + Q = I
        plus = 0.5 * (np.eye(2) + PAULI_X)
        povm = validate_povm([0.0, 1.0, 3.0], [0.5 * plus, np.eye(2) - plus, 0.5 * plus])
    else:
        povm = trine()
    return povm, derive_params(povm)


class TestSamplerOracles:
    @pytest.mark.parametrize("name", ["tilted", "depolarized", "lossy", "identity-index-sum",
                                      "trine"])
    def test_matches_brute_force_mid_ladder(self, name):
        # Complex coefficients at base 5 of N = 12, against explicit 2^N
        # vectors; the trine has no common eigenbasis and samples from
        # pmf_finite, the others draw an occupation and two multinomials.
        povm, params = oracle_povm(name)
        assert (common_eigenbasis(povm) is None) == (name == "trine")
        state = DickeSuperposition.from_coeffs(12, [0.6, 0.3 + 0.4j, -0.64], base_level=5)
        exact = brute_force_pmf(state, povm, params, 0.5)
        batch = sample_outcomes(state, povm, params, 0.5, 20000, seed=31)
        chi2, dof, off_lattice = lattice_pearson(exact, batch.values)
        assert off_lattice < 1e-9
        assert chi2 < chi2_bound(dof)

    def test_both_listings_of_commuting_effects_sample_in_the_eigenbasis(self):
        # The same three-outcome POVM listed (P/2, Q, P/2) and (P/2, P/2, Q):
        # one pmf_finite where inversion works, and eigenbasis samples that
        # agree at base N/2 of N = 100, where pmf_finite raises.
        split, _ = oracle_povm("identity-index-sum")
        grouped = validate_povm([0.0, 3.0, 1.0], [split.effects[i] for i in (0, 2, 1)])
        small = DickeSuperposition.from_coeffs(12, [0.6, 0.48j, -0.64], base_level=5)
        mid = DickeSuperposition(n_particles=100, base_level=50, coeffs=PAPER_COEFFS)
        pmfs, records = [], []
        for povm, seed in ((split, 4), (grouped, 5)):
            params = derive_params(povm)
            assert common_eigenbasis(povm) is not None
            pmfs.append(pmf_finite(small, povm, params, 0.5))
            with pytest.raises(NumericError):
                pmf_finite(mid, povm, params, 0.5)
            records.append(sample_outcomes(mid, povm, params, 0.5, 20000, seed=seed).values)
        np.testing.assert_array_equal(pmfs[0].values, pmfs[1].values)
        np.testing.assert_allclose(pmfs[0].probs, pmfs[1].probs, atol=1e-15)
        chi2, dof = two_sample_pearson(*records)
        assert chi2 < chi2_bound(dof)

    @pytest.mark.parametrize("name", ["depolarized", "lossy", "trine"])
    def test_prefix_stability_on_every_route(self, name):
        povm, params = oracle_povm(name)
        state = paper_state(20)
        short = sample_outcomes(state, povm, params, 0.5, 50, seed=3)
        long = sample_outcomes(state, povm, params, 0.5, 120, seed=3)
        assert np.array_equal(short.values, long.values[:50])

    def test_matches_window_sampler_where_inversion_fails(self):
        # Depolarized sx with paper coefficients at base N/2 of N = 80:
        # pmf_finite raises, so the sequential window sampler is the only
        # independent reference.
        povm, params = oracle_povm("depolarized")
        state = DickeSuperposition(n_particles=80, base_level=40, coeffs=PAPER_COEFFS)
        with pytest.raises(NumericError):
            pmf_finite(state, povm, params, 0.5)
        reference = window_sample(state, povm, params, 0.5, 1600, seed=1)
        batch = sample_outcomes(state, povm, params, 0.5, 20000, seed=2)
        chi2, dof = two_sample_pearson(reference, batch.values)
        assert dof >= 20
        assert chi2 < chi2_bound(dof)

    @pytest.mark.parametrize("d", [17, 20])
    def test_depolarized_past_sixteen_levels_matches_window_sampler(self, d):
        # The eigenbasis route at 17 and 20 levels (the former cap was 16)
        # against the sequential window sampler.
        povm, params = oracle_povm("depolarized")
        state = random_state(40, d, seed=d)
        reference = window_sample(state, povm, params, 0.5, 1600, seed=1)
        batch = sample_outcomes(state, povm, params, 0.5, 20000, seed=2)
        chi2, dof = two_sample_pearson(reference, batch.values)
        assert dof >= 20
        assert chi2 < chi2_bound(dof)


class TestSamplerValidation:
    def test_alpha_rejected(self, sigma_x, params_x):
        with pytest.raises(ValidationError):
            sample_outcomes(paper_state(8), sigma_x, params_x, 0.7, 10, seed=0)

    def test_sample_count_rejected(self, sigma_x, params_x):
        with pytest.raises(ValidationError):
            sample_outcomes(paper_state(8), sigma_x, params_x, 0.5, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_rejected(self, sigma_x, params_x, seed):
        with pytest.raises(ValidationError):
            sample_outcomes(paper_state(8), sigma_x, params_x, 0.5, 10,
                            seed=seed)

    def test_particle_cap(self, sigma_x, params_x):
        # The sampler's one cap is the lattice cap of pmf_finite.
        state = single_level(DEFAULT_LATTICE_CAP + 1)
        with pytest.raises(CapExceededError):
            sample_outcomes(state, sigma_x, params_x, 0.5, 1, seed=0)

    def test_past_a_million_particles(self, sigma_x, params_x):
        # The former sampler cap was 10^6 particles, below the lattice cap.
        state = paper_state(10**6 + 1)
        batch = sample_outcomes(state, sigma_x, params_x, 0.5, 2000, seed=6)
        assert np.all(np.isin(batch.values, pmf_finite(state, sigma_x, params_x, 0.5).values))

    def test_level_cap(self, sigma_x, params_x):
        # No level cap: 17 and 20 levels, past the former sampler cap of 16,
        # sample onto the exact lattice of pmf_finite.
        for d in (17, 20):
            state = random_state(40, d, seed=d)
            pmf = pmf_finite(state, sigma_x, params_x, 0.5)
            batch = sample_outcomes(state, sigma_x, params_x, 0.5, 20000, seed=d)
            chi2, dof, off_lattice = lattice_pearson(pmf, batch.values)
            assert off_lattice < 1e-9
            assert chi2 < chi2_bound(dof)

    def test_window_cap(self, sigma_x, params_x):
        # No window or base-level cap: 8 levels at base 60 of N = 100
        # sample onto the exact lattice.
        state = DickeSuperposition(
            n_particles=100, base_level=60,
            coeffs=np.full(8, 1.0 / math.sqrt(8.0), dtype=complex))
        pmf = pmf_finite(state, sigma_x, params_x, 0.5)
        batch = sample_outcomes(state, sigma_x, params_x, 0.5, 20000, seed=0)
        chi2, dof, off_lattice = lattice_pearson(pmf, batch.values)
        assert off_lattice < 1e-9
        assert chi2 < chi2_bound(dof)

    def test_batch_shape_validation(self):
        with pytest.raises(ValidationError):
            SampleBatch(values=np.zeros((2, 2)), n_particles=4, seed=0,
                        n_samples=4)
        with pytest.raises(ValidationError):
            SampleBatch(values=np.zeros(3), n_particles=4, seed=0,
                        n_samples=4)

    def test_batch_is_immutable(self, sigma_x, params_x):
        batch = sample_outcomes(paper_state(8), sigma_x, params_x, 0.5, 5,
                                seed=0)
        with pytest.raises(ValueError):
            batch.values[0] = 0.0


class TestKsDistance:
    def test_scalar_cdf_fallback(self):
        batch = SampleBatch(values=np.array([0.0]), n_particles=2, seed=0,
                            n_samples=1)
        assert ks_distance(batch, lambda x: 0.5) == pytest.approx(0.5)

    def test_perfect_quantile_fit(self):
        n = 10
        quantiles = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        batch = SampleBatch(values=quantiles, n_particles=2, seed=0,
                            n_samples=n)
        d = ks_distance(batch, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.5 / n, abs=1e-15)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        batch = SampleBatch(values=values, n_particles=2, seed=0,
                            n_samples=40)
        from scipy.stats import norm

        xs = np.sort(values)
        model = norm.cdf(xs)
        i = np.arange(40)
        expected = max(np.max((i + 1) / 40 - model), np.max(model - i / 40))
        assert ks_distance(batch, norm.cdf) == pytest.approx(expected,
                                                             abs=1e-15)


class TestScalingExponent:
    N_LIST = (20, 40, 80, 160)

    def test_product_family_square_root_scaling(self, sigma_x):
        beta = scaling_exponent(lambda n: single_level(n, 0), sigma_x,
                                self.N_LIST)
        assert beta == pytest.approx(0.5, abs=1e-9)

    def test_shared_excitation_family(self, sigma_x):
        beta = scaling_exponent(
            lambda n: DickeSuperposition(n_particles=n, base_level=1,
                                         coeffs=np.array([1.0 + 0.0j])),
            sigma_x, self.N_LIST)
        assert abs(beta - 0.5) <= 0.01

    def test_degenerate_family_flags_minus_inf(self, sigma_z):
        # sz has no off-diagonal scale; the exponent needs no mu or tau for it.
        beta = scaling_exponent(lambda n: single_level(n, 0), sigma_z, self.N_LIST)
        assert beta == -math.inf

    @pytest.mark.parametrize("name", ["tilted", "depolarized"])
    def test_exponent_ignores_the_measurement_parameters(self, name):
        # The variance of the intensity does not depend on mu, tau or phi:
        # a tilted and a noisy POVM give the product family beta = 1/2.
        povm, _ = oracle_povm(name)
        beta = scaling_exponent(lambda n: single_level(n, 0), povm, self.N_LIST)
        assert beta == pytest.approx(0.5, abs=1e-9)

    def test_requires_four_distinct_sizes(self, sigma_x):
        with pytest.raises(ValidationError):
            scaling_exponent(lambda n: single_level(n, 0), sigma_x, (10, 20, 40))
        with pytest.raises(ValidationError):
            scaling_exponent(lambda n: single_level(n, 0), sigma_x,
                             (10, 20, 40, 40))
