"""Exact finite-N statistics against brute force and structural invariants."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobell import finite_n
from macrobell.errors import (
    CapExceededError,
    NumericError,
    OffLatticeError,
    ValidationError,
)
from macrobell.finite_n import (
    DickeSuperposition,
    LatticePmf,
    brute_force_char_fn,
    brute_force_pmf,
    char_fn_finite,
    moments_finite,
    pmf_finite,
    total_variation,
)
from macrobell.povm import (
    PAULI_X,
    PAULI_Z,
    common_eigenbasis,
    derive_params,
    projective_from_bloch,
    validate_povm,
)

from conftest import PAPER_COEFFS

I2 = np.eye(2, dtype=complex)


def random_instance(rng, max_n=12, max_d=4):
    """A random Dicke superposition plus a random valid binary POVM."""
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, min(max_d, n + 1) + 1))
    base = int(rng.integers(0, n - d + 2))
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    coeffs /= np.linalg.norm(coeffs)
    state = DickeSuperposition(n_particles=n, base_level=base, coeffs=coeffs)

    # random effect 0 <= E <= I with a generic eigenbasis
    theta = rng.uniform(0.15, math.pi - 0.15)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    vec = np.array([c, s * np.exp(1j * azimuth)])
    basis = np.column_stack([vec, [-np.conj(vec[1]), np.conj(vec[0])]])
    eigs = rng.uniform(0.05, 0.95, size=2)
    effect = basis @ np.diag(eigs) @ basis.conj().T
    povm = validate_povm([-1.0, 1.0], [effect, I2 - effect])
    params = derive_params(povm)
    return state, povm, params


def test_dicke_constructor_roundtrip():
    state = DickeSuperposition.dicke(10, 3)
    assert state.n_particles == 10
    assert state.base_level == 3
    np.testing.assert_allclose(state.coeffs, [1.0 + 0.0j])


def test_w_state_is_level_one():
    state = DickeSuperposition.w_state(7)
    assert state.base_level == 1
    np.testing.assert_allclose(state.coeffs, [1.0 + 0.0j])


def test_state_validation():
    with pytest.raises(ValidationError):
        DickeSuperposition(n_particles=4, base_level=0,
                           coeffs=np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(ValidationError):
        DickeSuperposition(n_particles=4, base_level=4,
                           coeffs=np.array([0.0, 1.0]))  # level 5 > N
    with pytest.raises(ValidationError):
        DickeSuperposition(n_particles=4, base_level=-1,
                           coeffs=np.array([1.0]))


def test_char_fn_at_zero_is_one(sigma_x, params_x):
    state = DickeSuperposition.w_state(20)
    assert char_fn_finite(state, sigma_x, params_x, 0.5, 0.0) == 1.0 + 0.0j
    values = char_fn_finite(state, sigma_x, params_x, 0.5, np.array([0.0, 1.0]))
    assert values[0] == 1.0 + 0.0j


def test_char_fn_scalar_passthrough(sigma_x, params_x):
    state = DickeSuperposition.w_state(10)
    value = char_fn_finite(state, sigma_x, params_x, 0.5, 0.7)
    assert isinstance(value, complex)


@pytest.mark.parametrize("n", [50, 80, 100])
def test_char_fn_is_the_fourier_sum_of_the_pmf(sigma_x, params_x, n):
    # The Dicke-sum evaluator this replaced was off by 2e-8, 6e-4 and 0.74
    # here; the blocked sum stays within 1.7e-14 of the direct one.
    state = DickeSuperposition(n_particles=n, base_level=n // 2, coeffs=PAPER_COEFFS)
    pmf = pmf_finite(state, sigma_x, params_x, 0.5)
    t = np.linspace(0.0, 2.0 * np.pi / (pmf.values[1] - pmf.values[0]), 241)[1:]
    direct = np.exp(1j * np.outer(t, pmf.values)) @ pmf.probs
    assert np.max(np.abs(char_fn_finite(state, sigma_x, params_x, 0.5, t) - direct)) <= 1e-13


@pytest.mark.parametrize("n", [100, 200, 400])
def test_char_fn_over_one_period_inverts_to_the_ladder_moments(sigma_x, params_x, n):
    # Mid-ladder, where the Dicke sums cancel: the DFT of the Dicke-sum
    # characteristic function had probability -4.7e-2 at N = 100 and left
    # the unit disc from N = 200.
    state = DickeSuperposition(n_particles=n, base_level=n // 2, coeffs=PAPER_COEFFS)
    pmf = char_fn_dft_pmf(state, sigma_x, params_x, 0.5)
    assert pmf.probs.min() >= -1e-12
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    mean, second = ladder_moments(state, math.pi / 2.0, 0.0, params_x, 0.5)
    assert pmf.mean() == pytest.approx(mean, abs=1e-10 * math.sqrt(second))
    assert float(np.dot(pmf.probs, pmf.values**2)) == pytest.approx(second, rel=1e-10)


def test_char_fn_memory_stays_bounded_at_large_n(sigma_x, params_x):
    # 10^5 + 1 lattice points and 241 t values: a dense exp(i t x) matrix
    # would take 386 MB; the blocked sum peaked at 9.6 MB.
    import tracemalloc

    state = DickeSuperposition.w_state(100000)
    tracemalloc.start()
    try:
        char_fn_finite(state, sigma_x, params_x, 0.5, np.linspace(-6.0, 6.0, 241))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_pmf_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for _ in range(12):
        state, povm, params = random_instance(rng)
        exact = pmf_finite(state, povm, params, 0.5)
        brute = brute_force_pmf(state, povm, params, 0.5)
        assert total_variation(exact, brute) <= 1e-10


def test_char_fn_matches_brute_force_randomized():
    rng = np.random.default_rng(43)
    t = np.linspace(-5.0, 5.0, 11)
    for _ in range(6):
        state, povm, params = random_instance(rng, max_n=10)
        fast = char_fn_finite(state, povm, params, 0.5, t)
        slow = brute_force_char_fn(state, povm, params, 0.5, t)
        assert np.max(np.abs(fast - slow)) <= 1e-10


def test_alpha_one_lattice_and_mean(sigma_x):
    # alpha=1 rescales by N: support shrinks toward [-1, 1] * outcome range
    params = derive_params(sigma_x, mode="one")
    state = DickeSuperposition.dicke(30, 0)
    pmf = pmf_finite(state, sigma_x, params, 1.0)
    assert np.all(np.abs(pmf.values) <= 1.0 + 1e-12)
    mean = float(np.sum(pmf.values * pmf.probs))
    assert mean == pytest.approx(0.0, abs=1e-12)


def test_moments_match_pmf_sums(sigma_x, params_x):
    state = DickeSuperposition.w_state(40)
    pmf = pmf_finite(state, sigma_x, params_x, 0.5)
    moments = moments_finite(state, sigma_x, params_x, 0.5, order=4)
    for order in range(5):
        direct = float(np.sum(pmf.probs * pmf.values**order))
        assert moments.raw[order] == pytest.approx(direct, rel=1e-9, abs=1e-9)
    variance = moments.raw[2] - moments.raw[1] ** 2
    assert moments.central[2] == pytest.approx(variance, rel=1e-9)


@pytest.mark.parametrize("order", [0, 9, 2.5, "2"])
def test_moments_order_is_an_integer_from_one_to_eight(sigma_x, params_x, order):
    with pytest.raises(ValidationError, match="order must be"):
        moments_finite(DickeSuperposition.w_state(4), sigma_x, params_x, 0.5, order=order)


def test_w_state_variance_is_three_minus_two_over_n(sigma_x, params_x):
    # E[X^2] = 3 - 2/N for the W state under a projective x measurement
    for n in (50, 200, 800):
        state = DickeSuperposition.w_state(n)
        m = moments_finite(state, sigma_x, params_x, 0.5, order=2)
        assert m.raw[2] == pytest.approx(3.0 - 2.0 / n, rel=1e-10)


def test_product_state_matches_binomial(sigma_x, params_x):
    n = 16
    state = DickeSuperposition.dicke(n, 0)
    pmf = pmf_finite(state, sigma_x, params_x, 0.5)
    # |+>^N ... each particle gives ±1 with probability 1/2
    counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    probs = counts / 2.0**n
    sums = n - 2 * np.arange(n + 1)  # k minus-outcomes
    x = sums / math.sqrt(n)
    order = np.argsort(x)
    np.testing.assert_allclose(pmf.values, x[order], atol=1e-12)
    np.testing.assert_allclose(pmf.probs, probs[order], atol=1e-12)


def test_off_lattice_outcomes_rejected(params_x):
    # distinct outcomes closer together than the lattice tolerance: no
    # positive step can represent them
    effects = [0.5 * (I2 + PAULI_X), 0.25 * (I2 - PAULI_X), 0.25 * (I2 - PAULI_X)]
    povm = validate_povm([0.0, 5e-10, 1e-9], effects)
    state = DickeSuperposition.dicke(6, 0)
    with pytest.raises(OffLatticeError):
        pmf_finite(state, povm, params_x, 0.5)


def test_irrational_outcome_ratio_hits_cap(params_x):
    # (1, -1, pi) admits only absurdly fine lattices; the cap catches it
    effects = [0.5 * (I2 + PAULI_X), 0.25 * (I2 - PAULI_X), 0.25 * (I2 - PAULI_X)]
    povm = validate_povm([1.0, -1.0, math.pi], effects)
    state = DickeSuperposition.dicke(6, 0)
    with pytest.raises(CapExceededError):
        pmf_finite(state, povm, params_x, 0.5)


def test_lattice_cap(params_x):
    effects = [0.5 * (I2 + PAULI_X), 0.25 * (I2 - PAULI_X), 0.25 * (I2 - PAULI_X)]
    povm = validate_povm([0.0, 1.0, 1e-6], effects)
    state = DickeSuperposition.dicke(60, 0)
    with pytest.raises(CapExceededError):
        pmf_finite(state, povm, params_x, 0.5)


@given(st.integers(2, 30), st.floats(-8.0, 8.0))
@settings(max_examples=40, deadline=None)
def test_char_fn_modulus_bounded(n, t):
    from macrobell.povm import projective_from_bloch

    sigma_x = projective_from_bloch(math.pi / 2.0, 0.0)
    params = derive_params(sigma_x)
    state = DickeSuperposition.w_state(n)
    value = char_fn_finite(state, sigma_x, params, 0.5, t)
    assert abs(value) <= 1.0 + 1e-12


@given(st.floats(0.25, 4.0), st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_affine_relabeling_leaves_x_invariant(scale, shift):
    """Relabeling outcomes a -> u a + v (u > 0) must not move X at all."""
    rng = np.random.default_rng(7)
    state, povm, params = random_instance(rng, max_n=10)
    relabeled = validate_povm(
        [scale * a + shift for a in povm.outcomes], povm.effects)
    params2 = derive_params(relabeled)
    pmf1 = pmf_finite(state, povm, params, 0.5)
    pmf2 = pmf_finite(state, relabeled, params2, 0.5)
    assert total_variation(pmf1, pmf2) <= 1e-9
    np.testing.assert_allclose(pmf1.values, pmf2.values, atol=1e-9)


# --------------------------------------------------------------------------
# Projective POVMs: the rotation route
# --------------------------------------------------------------------------

def sharp(povm):
    """Whether ``povm`` takes the rotation route: a common eigenbasis in
    which every outcome probability is within 1e-12 of 0 or 1."""
    common = common_eigenbasis(povm)
    return common is not None and bool(np.all(np.minimum(common[1], 1.0 - common[1]) <= 1e-12))


def random_projective_instance(rng, alpha, max_n=10, max_d=4):
    """Random complex superposition anywhere on the ladder, random Bloch axis."""
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, min(max_d, n + 1) + 1))
    base = int(rng.integers(0, n - d + 2))
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    state = DickeSuperposition.from_coeffs(n, coeffs, base_level=base)
    povm = projective_from_bloch(rng.uniform(0.15, math.pi - 0.15),
                                 rng.uniform(0.0, 2.0 * math.pi))
    params = derive_params(povm, mode="half" if alpha == 0.5 else "one")
    return state, povm, params


def inversion_pmf(state, povm, params, alpha):
    """The Dicke-sum inversion route, ``finite_n._inverted_probs``, for a +-1 POVM.

    The intensity is ``2*J - N`` with ``J`` the number of +1 outcomes, so
    the route's N+1 lattice probabilities are those of ``J``.
    """
    n = state.n_particles
    scale = params.tau * float(n) ** alpha
    idx = np.round((np.asarray(povm.outcomes) + 1.0) / 2.0).astype(np.int64)
    probs = finite_n._inverted_probs(state, povm, idx, n + 1)
    values = (2.0 * np.arange(n + 1) - n - n * params.mu) / scale
    return LatticePmf(values=values, probs=probs)


def char_fn_dft_pmf(state, povm, params, alpha):
    """The PMF of a +-1 POVM from ``char_fn_finite`` over one lattice period.

    The characteristic function at ``t = theta * scale / 2`` over the
    N+1 lattice frequencies, stripped of the centering phase, is the DFT
    of the distribution of ``J``.
    """
    n = state.n_particles
    scale = params.tau * float(n) ** alpha
    theta = 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    char = char_fn_finite(state, povm, params, alpha, theta * scale / 2.0)
    char = char * np.exp(-0.5j * n * theta * (-1.0 - params.mu))
    probs = np.fft.fft(char).real / (n + 1)
    values = (2.0 * np.arange(n + 1) - n - n * params.mu) / scale
    return LatticePmf(values=values, probs=probs)


def ladder_moments(state, theta, phi_bloch, params, alpha):
    """E[X] and E[X^2] for the +-1 measurement along (theta, phi_bloch).

    The intensity is ``S = sum_i n.sigma_i``, which moves a Dicke level by
    at most one, so ``(S - N mu)|psi>`` has d + 2 components and
    ``E[X^2] = ||(S - N mu) psi||^2 / scale^2`` costs O(d).
    """
    n = state.n_particles
    k = state.levels.astype(float)
    c = state.coeffs
    up = math.sin(theta) * np.exp(1j * phi_bloch) * np.sqrt((k + 1.0) * (n - k))
    down = math.sin(theta) * np.exp(-1j * phi_bloch) * np.sqrt(k * (n - k + 1.0))
    shifted = np.zeros(c.size + 2, dtype=complex)  # levels base-1 .. base+d
    shifted[1:-1] += (math.cos(theta) * (n - 2.0 * k) - n * params.mu) * c
    shifted[2:] += up * c
    shifted[:-2] += down * c
    scale = params.tau * float(n) ** alpha
    mean = float(np.vdot(np.concatenate([[0.0], c, [0.0]]), shifted).real) / scale
    return mean, float(np.vdot(shifted, shifted).real) / scale**2


def slot_scan_total_variation(pmf_a, pmf_b, match_atol=1e-9):
    """The O(n^2) slot scan that ``total_variation`` replaced, as a reference."""
    merged, keys = {}, []

    def slot(x):
        for key in keys:
            if abs(key - x) <= match_atol:
                return key
        keys.append(x)
        return x

    for v, p in zip(pmf_a.values, pmf_a.probs):
        key = slot(v)
        merged[key] = merged.get(key, 0.0) + p
    for v, p in zip(pmf_b.values, pmf_b.probs):
        key = slot(v)
        merged[key] = merged.get(key, 0.0) - p
    return 0.5 * sum(abs(delta) for delta in merged.values())


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_projective_pmf_matches_brute_force_randomized(alpha):
    rng = np.random.default_rng(1729 if alpha == 0.5 else 1730)
    for _ in range(16):
        state, povm, params = random_projective_instance(rng, alpha)
        assert sharp(povm)
        exact = pmf_finite(state, povm, params, alpha)
        brute = brute_force_pmf(state, povm, params, alpha)
        assert total_variation(exact, brute) <= 1e-12


def test_projective_pmf_top_of_ladder_against_brute_force():
    povm = projective_from_bloch(1.2, 0.3)
    params = derive_params(povm)
    state = DickeSuperposition.from_coeffs(12, [0.3, -1j, 0.5 + 0.2j, 1.0],
                                           base_level=8)
    exact = pmf_finite(state, povm, params, 0.5)
    assert total_variation(exact, brute_force_pmf(state, povm, params, 0.5)) <= 1e-12


@pytest.mark.parametrize("depol", [0.0, 0.2])
def test_mid_ladder_against_brute_force_at_the_oracle_cap(depol):
    # N = 14 is BRUTE_FORCE_MAX_N.  The plain Bloch POVM takes the rotation
    # route, the depolarised one the inversion route.
    from macrobell.noise import depolarize_povm

    povm = projective_from_bloch(1.0, 0.4)
    if depol:
        povm = depolarize_povm(povm, depol)
    params = derive_params(povm)
    n = finite_n.BRUTE_FORCE_MAX_N
    state = DickeSuperposition.from_coeffs(n, [0.6, 0.48j, -0.64], base_level=n // 2 - 1)
    assert sharp(povm) != bool(depol)
    exact = pmf_finite(state, povm, params, 0.5)
    assert total_variation(exact, brute_force_pmf(state, povm, params, 0.5)) <= 1e-12


def test_three_outcome_projective_povm_with_empty_effect():
    plus = 0.5 * (I2 + PAULI_X)
    povm = validate_povm([0.0, 1.0, 2.0], [np.zeros((2, 2)), I2 - plus, plus])
    column_probs = common_eigenbasis(povm)[1]
    assert sorted(np.argmax(column_probs, axis=0)) == [1, 2]
    params = derive_params(povm, mu=0.0, tau=1.0)
    state = DickeSuperposition.from_coeffs(9, [1.0, 2j, -0.5], base_level=3)
    exact = pmf_finite(state, povm, params, 0.5)
    assert total_variation(exact, brute_force_pmf(state, povm, params, 0.5)) <= 1e-12


UNSHARP = 0.3 * I2 + 0.2 * (I2 + PAULI_X)
TRINE = [(I2 + math.cos(a) * PAULI_Z + math.sin(a) * PAULI_X) / 3.0
         for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]


@pytest.mark.parametrize("povm", [validate_povm([1.0, -1.0], [UNSHARP, I2 - UNSHARP]),
                                  validate_povm([0.0, 1.0, 2.0], TRINE)],
                         ids=["unsharp", "trine"])
@pytest.mark.parametrize("n, base", [(6, 0), (10, 4), (14, 6)])
def test_unsharp_and_noncommuting_povms_against_brute_force(povm, n, base):
    # Neither POVM is projective (the trine has no common eigenbasis), so
    # both take the inversion route.
    assert not sharp(povm)
    params = derive_params(povm, mu=0.0, tau=1.0)
    state = DickeSuperposition.from_coeffs(n, [0.6, 0.48j, -0.64], base_level=base)
    exact = pmf_finite(state, povm, params, 0.5)
    assert total_variation(exact, brute_force_pmf(state, povm, params, 0.5)) <= 1e-12


def test_rotation_route_mass_guard(monkeypatch, sigma_x, params_x):
    solve = finite_n._ladder_vectors

    def stretched(*args):
        return 1.001 * solve(*args)

    monkeypatch.setattr(finite_n, "_ladder_vectors", stretched)
    state = DickeSuperposition(n_particles=100, coeffs=PAPER_COEFFS, base_level=50)
    with pytest.raises(NumericError, match="unit mass"):
        pmf_finite(state, sigma_x, params_x, 0.5)


def test_rotation_route_reports_non_finite_vectors(monkeypatch, sigma_x, params_x):
    # A pivot that breaks down to NaN poisons the vector built from it.
    pivots = finite_n._pivots

    def broken(*args):
        values = pivots(*args)
        values[len(values) // 2] = math.nan
        return values

    monkeypatch.setattr(finite_n, "_pivots", broken)
    state = DickeSuperposition(n_particles=100, coeffs=PAPER_COEFFS, base_level=50)
    with pytest.raises(NumericError, match="non-finite rotated vector"):
        pmf_finite(state, sigma_x, params_x, 0.5)


def test_rotation_route_rejects_nan_weights(monkeypatch, sigma_x, params_x):
    # NaN fails every comparison, so a guard written as "value > bound" let
    # NaN weights through as an all-NaN PMF.
    solve = finite_n._ladder_vectors

    def poisoned(*args):
        vectors = solve(*args)
        vectors[0, 0] = math.nan
        return vectors

    monkeypatch.setattr(finite_n, "_ladder_vectors", poisoned)
    state = DickeSuperposition(n_particles=100, coeffs=PAPER_COEFFS, base_level=50)
    with pytest.raises(NumericError, match="unit mass"):
        pmf_finite(state, sigma_x, params_x, 0.5)


def test_inversion_route_rejects_nan_characteristic_function(monkeypatch):
    from macrobell.noise import depolarize_povm

    povm = depolarize_povm(projective_from_bloch(math.pi / 2.0, 0.0), 0.2)
    evaluate = finite_n._superposition_expectation

    def poisoned(*args):
        values = evaluate(*args)
        values[1] = math.nan
        return values

    monkeypatch.setattr(finite_n, "_superposition_expectation", poisoned)
    state = DickeSuperposition(n_particles=20, coeffs=PAPER_COEFFS)
    with pytest.raises(NumericError, match="imaginary residue"):
        pmf_finite(state, povm, derive_params(povm), 0.5)


@functools.lru_cache(maxsize=2)  # the two POVMs of one (N, base) case
def bisection_vectors(bloch, n, base, levels=16):
    """Eigenpairs base..base+levels-1 of the collective U^dag J_z U in the
    rephased Dicke basis, by bisection plus inverse iteration
    (``eigh_tridiagonal``)."""
    from scipy.linalg import eigh_tridiagonal

    basis = common_eigenbasis(projective_from_bloch(*bloch))[0]
    h = basis.conj().T @ np.diag([-0.5, 0.5]) @ basis
    m = np.arange(n + 1.0)
    ladder = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    return eigh_tridiagonal((n - m) * h[0, 0].real + m * h[1, 1].real, abs(h[1, 0]) * ladder,
                            select="i", select_range=(base, base + levels - 1))


def recorded_ladders(monkeypatch):
    """Every (diag, off, eigenvalues, vectors) that ``_ladder_vectors`` sees."""
    solve = finite_n._ladder_vectors
    calls = []

    def recorded(*args):
        vectors = solve(*args)
        calls.append((*args, vectors))
        return vectors

    monkeypatch.setattr(finite_n, "_ladder_vectors", recorded)
    return calls


def recorded_rotation(monkeypatch, state, bloch):
    """Eigenvalues and vectors that ``rotated_weights`` computes for ``state``."""
    calls = recorded_ladders(monkeypatch)
    finite_n.rotated_weights(state, common_eigenbasis(projective_from_bloch(*bloch))[0])
    return calls[-1][2:]


def assert_rotation_matches_bisection(monkeypatch, bloch, n, base, values, oracle):
    state = DickeSuperposition.from_coeffs(n, np.ones(values.size), base_level=base)
    eigenvalues, vectors = recorded_rotation(monkeypatch, state, bloch)
    assert np.max(np.abs(values - eigenvalues)) <= 1e-10
    signs = np.sign(np.sum(vectors * oracle, axis=0))
    assert np.max(np.abs(signs * vectors - oracle)) <= 1e-12
    assert np.max(np.abs(vectors.T @ vectors - np.eye(values.size))) <= 1e-12


@pytest.mark.parametrize("bloch", [(math.pi / 2.0, 0.0), (1.2, 0.3)], ids=["sx", "bloch"])
@pytest.mark.parametrize("levels", [3, 16])
@pytest.mark.parametrize("n", [1000, 100000])
@pytest.mark.parametrize("mid_ladder", [False, True], ids=["base0", "baseN/2"])
def test_rotated_vectors_against_eigh_tridiagonal(monkeypatch, bloch, levels, n, mid_ladder):
    # The twisted factorization at the eigenvalues of the floating-point h
    # against bisection for them.  Measured over these 16 cases: eigenvalues
    # within 7.3e-12, vectors within 1.9e-13 up to sign, orthonormal to 1.5e-15.
    base = n // 2 if mid_ladder else 0
    values, oracle = bisection_vectors(bloch, n, base)
    assert_rotation_matches_bisection(monkeypatch, bloch, n, base, values[:levels],
                                      oracle[:, :levels])


# Inputs on which a twisted factorization breaks without its safeguards:
# sx at even N puts exact zero pivots and exact nodes at level N/2, a z
# measurement (and its flip) has no coupling at all, and a tilt of 1e-9
# couples the ladder by 5e-10.
Z_FLIP = validate_povm([1.0, -1.0], [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
EDGE_POVMS = {"sx": projective_from_bloch(math.pi / 2.0, 0.0),
              "sz": projective_from_bloch(0.0, 0.0), "sz-flip": Z_FLIP,
              "bloch-pi": projective_from_bloch(math.pi, 0.0),
              "bloch-1e-9": projective_from_bloch(1e-9, 0.0)}


@pytest.mark.parametrize("povm", EDGE_POVMS.values(), ids=EDGE_POVMS.keys())
@pytest.mark.parametrize("n, base, coeffs", [
    (2, 0, [0.6, 0.48j, -0.64]), (2, 1, [1.0]), (10, 5, [1.0]),
    (10, 4, [0.6, 0.48j, -0.64]), (10, 0, [0.6, 0.48j, -0.64]),
    (14, 5, [1.0, -0.5, 0.3j, 0.2]),
], ids=["N2-all", "N2-half", "N10-half", "N10-mid", "N10-base0", "N14-mid"])
def test_rotation_route_edge_cases_against_brute_force(povm, n, base, coeffs):
    params = derive_params(povm, mu=0.0, tau=1.0)  # a z measurement has no <0|A|1>
    state = DickeSuperposition.from_coeffs(n, coeffs, base_level=base)
    exact = pmf_finite(state, povm, params, 0.5)
    assert total_variation(exact, brute_force_pmf(state, povm, params, 0.5)) <= 1e-12


@pytest.mark.parametrize("bloch, n, base, levels", [
    ((math.pi / 2.0, 0.0), 100, 46, 9),   # exact zero pivots at level N/2 = 50
    ((math.pi / 2.0, 0.0), 2, 0, 3),
    ((math.pi / 2.0, 0.0), 10, 3, 5),
    ((0.0, 0.0), 1000, 0, 3), ((0.0, 0.0), 1000, 500, 3),
    ((math.pi, 0.0), 1000, 0, 3), ((math.pi, 0.0), 1000, 500, 3),
    ((1e-9, 0.0), 1000, 0, 3), ((1e-9, 0.0), 1000, 500, 3),
], ids=["sx-100", "sx-2", "sx-10", "sz-base0", "sz-mid", "bloch-pi-base0", "bloch-pi-mid",
        "bloch-1e-9-base0", "bloch-1e-9-mid"])
def test_rotated_vectors_edge_cases_against_eigh_tridiagonal(monkeypatch, bloch, n, base,
                                                             levels):
    assert_rotation_matches_bisection(monkeypatch, bloch, n, base,
                                      *bisection_vectors(bloch, n, base, levels))


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_exact_zero_pivots_give_the_null_vector_to_rounding(monkeypatch, n):
    # Under sx the diagonal is constant and level N/2 sits exactly on it, so
    # every other pivot is an exact zero.  The vector is then the null vector
    # of the off-diagonal: v_{i+2} = -(b_i / b_{i+1}) v_i, odd rows 0, here in
    # exact rational arithmetic.  Summing the +-700 logs of the tiny and huge
    # pivots one by one put it 5.8e-14 off at N = 100.
    from fractions import Fraction

    state = DickeSuperposition.dicke(n, n // 2)
    _, vectors = recorded_rotation(monkeypatch, state, (math.pi / 2.0, 0.0))
    basis = common_eigenbasis(projective_from_bloch(math.pi / 2.0, 0.0))[0]
    m = np.arange(n)
    off = abs(complex((basis.conj().T @ np.diag([-0.5, 0.5]) @ basis)[1, 0])) \
        * np.sqrt((m + 1.0) * (n - m))
    exact = [Fraction(1)]
    for i in range(0, n, 2):
        exact += [Fraction(0), -exact[-1] * Fraction(off[i]) / Fraction(off[i + 1])]
    norm = math.sqrt(sum(x * x for x in exact))
    exact = np.array([float(x) for x in exact]) / norm
    vector = vectors[:, 0] * np.sign(vectors[0, 0])
    assert np.max(np.abs(vector - exact)) <= 1e-15


def phased_haar_basis(rng):
    """A Haar-random unitary times diag(e^{i alpha}, e^{i beta}): unlike a
    basis from ``eigh``, its column phases are arbitrary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))


def basis_povm(basis):
    """The projective POVM {|u_0><u_0|, |u_1><u_1|} with outcomes (0, 1)."""
    return validate_povm([0.0, 1.0], [np.outer(u, u.conj()) for u in basis.T])


@pytest.mark.parametrize("place", ["base0", "mid-ladder", "top"])
def test_rotated_weights_of_bases_with_arbitrary_column_phases(monkeypatch, place):
    # The level phase exp(i k chi), chi = arg U_00 - arg U_10, against 2^N
    # state vectors.  At these sizes every window starts at row 0, where each
    # vector must be positive.
    rng = np.random.default_rng(["base0", "mid-ladder", "top"].index(place) + 41)
    calls = recorded_ladders(monkeypatch)
    for n in (1, 2, 5, 9, 12):
        for _ in range(3):
            d = int(rng.integers(1, min(4, n + 1) + 1))
            base = {"base0": 0, "mid-ladder": (n + 1 - d) // 2, "top": n + 1 - d}[place]
            state = DickeSuperposition.from_coeffs(
                n, rng.normal(size=d) + 1j * rng.normal(size=d), base_level=base)
            basis = phased_haar_basis(rng)
            povm = basis_povm(basis)
            brute = brute_force_pmf(state, povm, derive_params(povm, mu=0.0, tau=1.0), 0.5)
            assert np.max(np.abs(finite_n.rotated_weights(state, basis) - brute.probs)) <= 1e-13
            assert np.all(calls[-1][-1][0] > 0.0)


def test_rotated_weights_past_row_zero_against_inversion(monkeypatch):
    # At N = 5000 the row-0 entries underflow, so the signs come from pivot
    # parity.  The weights are checked against the inversion route, exact at
    # base 0, and each sign against the pivots of the whole ladder from row
    # 0: a vector positive in row 0 has the sign (-1)^(positive pivots above
    # row r) at its largest entry r.
    rng = np.random.default_rng(47)
    calls = recorded_ladders(monkeypatch)
    n = 5000
    for ground in (0.3, 0.5, 0.7):  # |U_00|^2
        c, s = math.sqrt(ground), math.sqrt(1.0 - ground)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
        basis = np.diag([1.0, phases[0]]) @ np.array([[c, -s], [s, c]]) @ np.diag(phases[1:])
        state = DickeSuperposition.from_coeffs(
            n, rng.normal(size=4) + 1j * rng.normal(size=4))
        weights = finite_n.rotated_weights(state, basis)
        oracle = finite_n._inverted_probs(state, basis_povm(basis), np.array([0, 1]), n + 1)
        assert np.max(np.abs(weights - oracle)) <= 1e-12

        diag, off, eigenvalues, vectors = calls[-1]
        assert np.all(vectors[0] == 0.0)
        for lam, vector in zip(eigenvalues, vectors.T):
            r = int(np.argmax(np.abs(vector)))
            pivot, positive = diag[0] - lam, 0
            for i in range(r):
                positive += pivot > 0.0
                pivot = diag[i + 1] - lam - off[i] ** 2 / pivot
            assert np.sign(vector[r]) == (-1.0) ** positive


@pytest.mark.parametrize("n, coeffs", [
    (1000, PAPER_COEFFS),
    (10000, np.array([1.0 + 0.0j])),  # with base level 1: the W state
    (2000, np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)),
], ids=["paper-1000", "w-10000", "equal8-2000"])
def test_projective_route_agrees_with_inversion_route(sigma_x, params_x, n, coeffs):
    base = 1 if coeffs.size == 1 else 0
    state = DickeSuperposition(n_particles=n, coeffs=coeffs, base_level=base)
    exact = pmf_finite(state, sigma_x, params_x, 0.5)
    assert total_variation(exact, inversion_pmf(state, sigma_x, params_x, 0.5)) <= 1e-10


def test_sixteen_levels_moments_against_ladder(sigma_x, params_x):
    n = 2000
    state = DickeSuperposition.from_coeffs(n, np.ones(16))
    pmf = pmf_finite(state, sigma_x, params_x, 0.5)
    mean, second = ladder_moments(state, math.pi / 2.0, 0.0, params_x, 0.5)
    assert pmf.mean() == pytest.approx(mean, abs=1e-10 * math.sqrt(second))
    assert float(np.dot(pmf.probs, pmf.values**2)) == pytest.approx(second, rel=1e-10)


@pytest.mark.parametrize("n", [1000, 10000, 100000])
def test_alpha_one_mid_ladder_moments_against_ladder(sigma_x, n):
    params = derive_params(sigma_x, mode="one")
    state = DickeSuperposition(n_particles=n, coeffs=PAPER_COEFFS, base_level=n // 2)
    pmf = pmf_finite(state, sigma_x, params, 1.0)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    mean, second = ladder_moments(state, math.pi / 2.0, 0.0, params, 1.0)
    assert pmf.mean() == pytest.approx(mean, abs=1e-10 * math.sqrt(second))
    assert float(np.dot(pmf.probs, pmf.values**2)) == pytest.approx(second, rel=1e-10)


def test_bloch_axis_with_azimuth_moments_against_ladder():
    theta, phi_bloch = 1.2, 0.3
    povm = projective_from_bloch(theta, phi_bloch)
    params = derive_params(povm)
    state = DickeSuperposition.from_coeffs(5000, [0.6, 0.48j, -0.64, 0.1 + 0.3j],
                                           base_level=2400)
    pmf = pmf_finite(state, povm, params, 0.5)
    mean, second = ladder_moments(state, theta, phi_bloch, params, 0.5)
    assert pmf.mean() == pytest.approx(mean, abs=1e-10 * math.sqrt(second))
    assert float(np.dot(pmf.probs, pmf.values**2)) == pytest.approx(second, rel=1e-10)


def test_total_variation_matches_slot_scan():
    rng = np.random.default_rng(11)
    for _ in range(20):
        size_a, size_b = rng.integers(1, 40, size=2)
        grid = np.arange(60) * 0.1
        va = np.sort(rng.choice(grid, size=size_a, replace=False))
        vb = np.sort(rng.choice(grid, size=size_b, replace=False))
        vb = vb + rng.uniform(-5e-10, 5e-10, size=size_b)  # jitter within match_atol
        pa = rng.dirichlet(np.ones(size_a))
        pb = rng.dirichlet(np.ones(size_b))
        a, b = LatticePmf(va, pa), LatticePmf(vb, pb)
        assert total_variation(a, b) == pytest.approx(
            slot_scan_total_variation(a, b), abs=1e-15)
    point = LatticePmf(np.array([0.0]), np.array([1.0]))
    moved = LatticePmf(np.array([1e-6]), np.array([1.0]))
    assert total_variation(point, moved) == 1.0
    assert total_variation(point, moved, match_atol=1e-5) == 0.0
