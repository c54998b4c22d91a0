"""Acceptance suite: one test per release criterion, reported by number.

Each test computes its verdict first, records it for the terminal summary,
then asserts with the measured numbers in the failure message.
"""

import math
import subprocess
import sys
import time

import numpy as np

from macrobell.bell import (
    BellConfig,
    chsh_value,
    local_model_alpha_one,
    optimize_chsh,
    sign_overlap_table,
    signed_line_integral,
)
from macrobell.finite_n import (
    DickeSuperposition,
    brute_force_char_fn,
    brute_force_pmf,
    char_fn_finite,
    moments_finite,
    pmf_finite,
    total_variation,
)
from macrobell.limits import (
    LimitState,
    limit_density_alpha_half,
    limit_density_alpha_one,
    verify_hermite_lemma,
)
from macrobell.noise import (
    NoiseSpec,
    dephase_povm,
    depolarize_povm,
    loss_width,
    lossy_povm,
    noisy_limit_params,
)
from macrobell.povm import derive_params
from macrobell.sampling import ks_distance, sample_outcomes, scaling_exponent

from conftest import CHSH_OPTIMUM, PAPER_COEFFS, record_criterion, src_env
from test_finite_n import random_instance


def single_level(n: int, k: int) -> DickeSuperposition:
    return DickeSuperposition(n_particles=n, base_level=k,
                              coeffs=np.array([1.0 + 0.0j]))


def test_criterion_01_chsh_reproduction():
    start = time.perf_counter()
    config = BellConfig(schmidt_coeffs=PAPER_COEFFS,
                        phi_a=0.0, phi_a_prime=math.pi / 2.0,
                        phi_b=-math.pi / 4.0, phi_b_prime=math.pi / 4.0)
    value = chsh_value(config)
    best = optimize_chsh(PAPER_COEFFS).value
    elapsed = time.perf_counter() - start

    value_ok = abs(value - CHSH_OPTIMUM) <= 1e-9
    optimum_ok = best >= CHSH_OPTIMUM - 1e-6
    time_ok = elapsed < 1.0
    record_criterion(
        1, "CHSH value 2*sqrt(10)/pi and optimizer recovery (< 1 s)",
        value_ok and optimum_ok and time_ok)
    assert value_ok, f"chsh_value {value!r} vs {CHSH_OPTIMUM!r}"
    assert optimum_ok, f"optimizer reached only {best!r}"
    assert time_ok, f"took {elapsed:.2f} s"


def test_criterion_02_sign_overlaps():
    table = sign_overlap_table(6).values
    i01_ok = abs(table[0, 1] - math.sqrt(2.0 / math.pi)) <= 1e-9
    i12_ok = abs(table[1, 2] - 1.0 / math.sqrt(math.pi)) <= 1e-9
    k = np.arange(7)
    even = (k[:, None] + k[None, :]) % 2 == 0
    parity_ok = bool(np.all(table[even] == 0.0))
    record_criterion(
        2, "sign overlaps: closed forms to 1e-9, even parity exactly zero",
        i01_ok and i12_ok and parity_ok)
    assert i01_ok, f"i_01 = {table[0, 1]!r}"
    assert i12_ok, f"i_12 = {table[1, 2]!r}"
    assert parity_ok, "an even-parity entry is nonzero"


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    ts = np.linspace(-6.0, 6.0, 21)
    worst_tv, worst_char = 0.0, 0.0
    for _ in range(50):
        state, povm, params = random_instance(rng)
        fast = pmf_finite(state, povm, params, 0.5)
        slow = brute_force_pmf(state, povm, params, 0.5)
        worst_tv = max(worst_tv, total_variation(fast, slow))
        delta = np.abs(char_fn_finite(state, povm, params, 0.5, ts)
                       - brute_force_char_fn(state, povm, params, 0.5, ts))
        worst_char = max(worst_char, float(delta.max()))
    elapsed = time.perf_counter() - start

    tv_ok = worst_tv <= 1e-10
    char_ok = worst_char <= 1e-10
    time_ok = elapsed < 120.0
    record_criterion(
        3, "pmf and characteristic function match the brute-force oracle "
           "on 50 random instances (< 2 min)",
        tv_ok and char_ok and time_ok)
    assert tv_ok, f"worst total variation {worst_tv:.3e}"
    assert char_ok, f"worst characteristic-function gap {worst_char:.3e}"
    assert time_ok, f"took {elapsed:.1f} s"


def test_criterion_04_single_excitation_law(sigma_x, params_x):
    ts = np.linspace(-5.0, 5.0, 101)
    target = (1.0 - ts**2) * np.exp(-(ts**2) / 2.0)
    errors = []
    for n in (125, 250, 500, 1000, 2000):
        values = char_fn_finite(single_level(n, 1), sigma_x, params_x, 0.5, ts)
        errors.append(float(np.max(np.abs(values - target))))
    final_ok = errors[-1] <= 0.01
    monotone_ok = bool(np.all(np.diff(errors) < 0.0))
    record_criterion(
        4, "single-excitation characteristic function converges to "
           "(1 - t^2) exp(-t^2/2)",
        final_ok and monotone_ok)
    assert final_ok, f"max error at N=2000 is {errors[-1]:.4f}"
    assert monotone_ok, f"errors not monotone: {errors}"


def test_criterion_05_hermite_lemma():
    worst = 0.0
    for m in range(7):
        for n in range(7):
            for beta in (0.5, 1.0, 2.0):
                for gamma in (0.5, 1.0, 2.0):
                    worst = max(worst, verify_hermite_lemma(m, n, beta, gamma))
    ok = worst <= 1e-8
    record_criterion(
        5, "Hermite convolution lemma residual <= 1e-8 for all m,n <= 6", ok)
    assert ok, f"worst residual {worst:.3e}"


def test_criterion_06_limit_density_structure():
    # (a) width-s density equals the width-0 density convolved with a
    # centered Gaussian of standard deviation s.
    s = 0.8
    u = np.linspace(-20.0, 20.0, 8001)
    base = limit_density_alpha_half(
        LimitState(coeffs=PAPER_COEFFS, phi=math.pi, width=0.0), grid=u)
    smeared = limit_density_alpha_half(
        LimitState(coeffs=PAPER_COEFFS, phi=math.pi, width=s), grid=u)
    check = np.arange(u.size)[np.abs(u) <= 6.0][::40]
    kernel = (np.exp(-((u[check][:, None] - u[None, :]) ** 2) / (2.0 * s * s))
              / (s * math.sqrt(2.0 * math.pi)))
    oracle = np.trapezoid(kernel * base.density[None, :], u, axis=1)
    composition_gap = float(np.max(np.abs(smeared.density[check] - oracle)))

    # (b) second moment of each single-level limit density.
    moment_gap = 0.0
    width = 0.7
    for k in range(5):
        coeffs = np.zeros(k + 1, dtype=complex)
        coeffs[k] = 1.0
        density = limit_density_alpha_half(
            LimitState(coeffs=coeffs, phi=0.0, width=width))
        expected = 2.0 * k + 1.0 + width**2
        moment_gap = max(moment_gap, abs(density.moment(2) - expected))

    composition_ok = composition_gap <= 1e-8
    moment_ok = moment_gap <= 1e-6
    record_criterion(
        6, "limit-density smearing composition (1e-8) and second moments "
           "2k+1+s^2 (1e-6)",
        composition_ok and moment_ok)
    assert composition_ok, f"composition gap {composition_gap:.3e}"
    assert moment_ok, f"second-moment gap {moment_gap:.3e}"


def test_criterion_07_loss_formula(sigma_x, params_x):
    # (a) the implementation follows the loss-width law sigma^2/(p tau^2) - 1,
    # both as a closed form and as the width derive_params re-derives for the
    # three-outcome rewrite of loss (a missed particle scores mu).
    law_gap = 0.0
    smeared = depolarize_povm(sigma_x, 0.2)
    for povm in (sigma_x, smeared):
        params = derive_params(povm)
        for p in (0.1, 0.3, 0.5, 0.8, 1.0):
            width = loss_width(params, p)
            closed_form = params.sigma2 / (p * params.tau**2) - 1.0
            rederived = lossy_povm(povm, params, p)[1].s2
            for expected in (closed_form, rederived):
                law_gap = max(law_gap,
                              abs(width - expected) / max(abs(expected), 1.0))
    law_ok = law_gap <= 1e-13 and loss_width(params_x, 1.0) == params_x.s2

    # (b) finite-N check of the loss-width law against exact lossy moments of
    # the shared-excitation state, via the three-outcome rewrite of loss.
    report = []
    moments_ok = True
    n = 2000
    for p in (0.5, 0.8):
        loss_povm, loss_params = lossy_povm(sigma_x, params_x, p)
        m2 = moments_finite(single_level(n, 1), loss_povm, loss_params, 0.5,
                            order=2).raw[2]
        implied = 3.0 + loss_width(params_x, p)
        rel = abs(m2 - implied) / implied
        moments_ok = moments_ok and rel <= 0.05
        report.append(
            f"p={p}: exact E[X^2]={m2:.4f} at N={n}; loss-width law "
            f"sigma^2/(p tau^2)-1 implies {implied:.4f} (gap {rel:.2e})")

    record_criterion(
        7, "loss-width law sigma^2/(p tau^2)-1: closed form and three-outcome "
           "rewrite (1e-13), exact finite-N second moments (5%)",
        law_ok and moments_ok)
    assert law_ok, f"implementation deviates from the loss-width law: {law_gap:.3e}"
    assert moments_ok, (
        "the loss-width law does not match exact lossy moments within 5%:\n  "
        + "\n  ".join(report))


def test_criterion_08_channel_closed_forms(sigma_x):
    n = 2000
    state = single_level(n, 1)
    worst = 0.0
    for transform, field in ((depolarize_povm, "depol_lambda"),
                             (dephase_povm, "dephase_lambda")):
        for lam in (0.1, 0.3):
            transformed = transform(sigma_x, lam)
            m2 = moments_finite(state, transformed,
                                derive_params(transformed), 0.5,
                                order=2).raw[2]
            predicted = noisy_limit_params(
                sigma_x, NoiseSpec(**{field: lam})).s_squared
            implied = 3.0 + predicted
            worst = max(worst, abs(m2 - implied) / implied)
    ok = worst <= 0.05
    record_criterion(
        8, "channel closed forms match finite-N moments at N=2000 within 5%",
        ok)
    assert ok, f"worst relative moment gap {worst:.3e}"


def _binned_correlator(joint) -> float:
    half = math.pi / 2.0
    inner = signed_line_integral(joint.y_grid - half, joint.density, axis=1)
    return float(signed_line_integral(joint.x_grid - half, inner, axis=0))


def test_criterion_09_full_coarse_graining_branch():
    rng = np.random.default_rng(2718)

    norm_gap = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
        coeffs /= np.linalg.norm(coeffs)
        rotor = limit_density_alpha_one(coeffs, float(rng.uniform(-3, 3)))
        norm_gap = max(norm_gap, abs(rotor.integral() - 1.0))
    norm_ok = norm_gap <= 1e-9

    tv_gap = 0.0
    states = []
    for _ in range(20):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c /= np.linalg.norm(c)
        states.append(c)
        result = local_model_alpha_one(c, float(rng.uniform(-3, 3)),
                                       float(rng.uniform(-3, 3)))
        gap = np.abs(result.quantum_joint.density - result.lhv_joint.density)
        tv = 0.5 * float(np.trapezoid(
            np.trapezoid(gap, result.quantum_joint.y_grid, axis=1),
            result.quantum_joint.x_grid))
        tv_gap = max(tv_gap, tv)
    tv_ok = tv_gap <= 1e-8

    worst_chsh = -np.inf
    for c in states[:5]:
        for _ in range(4):
            a, ap, b, bp = rng.uniform(-math.pi, math.pi, size=4)
            s = (_binned_correlator(local_model_alpha_one(c, a, b).lhv_joint)
                 + _binned_correlator(local_model_alpha_one(c, a, bp).lhv_joint)
                 + _binned_correlator(local_model_alpha_one(c, ap, b).lhv_joint)
                 - _binned_correlator(local_model_alpha_one(c, ap, bp).lhv_joint))
            worst_chsh = max(worst_chsh, abs(s))
    chsh_ok = worst_chsh <= 2.0 + 1e-9

    record_criterion(
        9, "rotor normalization 1e-9, hidden-variable agreement 1e-8, "
           "binned CHSH <= 2",
        norm_ok and tv_ok and chsh_ok)
    assert norm_ok, f"worst normalization gap {norm_gap:.3e}"
    assert tv_ok, f"worst total variation {tv_gap:.3e}"
    assert chsh_ok, f"worst binned CHSH {worst_chsh!r}"


def _pearson(state, povm, params, n_samples, seed):
    pmf = pmf_finite(state, povm, params, 0.5)
    batch = sample_outcomes(state, povm, params, 0.5, n_samples, seed)
    indices = np.searchsorted(pmf.values, batch.values)
    indices = np.clip(indices, 0, pmf.values.size - 1)
    left = np.maximum(indices - 1, 0)
    use_left = (np.abs(pmf.values[left] - batch.values)
                < np.abs(pmf.values[indices] - batch.values))
    indices[use_left] = left[use_left]
    if np.max(np.abs(pmf.values[indices] - batch.values)) > 1e-9:
        return math.inf, 1
    counts = np.bincount(indices, minlength=pmf.values.size)
    expected = pmf.probs * n_samples
    keep = expected >= 5.0
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    tail = float(n_samples - expected[keep].sum())
    if tail > 0:
        chi2 += (counts[~keep].sum() - tail) ** 2 / tail
    return chi2, int(keep.sum())


def test_criterion_10_sampler_fidelity(sigma_x, params_x, tmp_path):
    start = time.perf_counter()

    chi_ok = True
    chi_report = []
    for state, seed in ((DickeSuperposition(n_particles=10, base_level=0,
                                            coeffs=PAPER_COEFFS), 404),
                        (single_level(12, 1), 405)):
        chi2, dof = _pearson(state, sigma_x, params_x, 20000, seed)
        bound = dof + 5.0 * math.sqrt(2.0 * dof)
        chi_ok = chi_ok and chi2 < bound
        chi_report.append(f"chi2={chi2:.1f} (dof {dof}, bound {bound:.1f})")

    n = 800
    equal2 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    suite = [
        (single_level(n, 1), np.array([0.0, 1.0], dtype=complex)),
        (single_level(n, 2), np.array([0.0, 0.0, 1.0], dtype=complex)),
        (DickeSuperposition(n_particles=n, base_level=0, coeffs=equal2),
         equal2),
    ]
    ks_values = []
    for seed_offset, (state, limit_coeffs) in enumerate(suite):
        batch = sample_outcomes(state, sigma_x, params_x, 0.5, 10**5,
                                seed=1000 + seed_offset)
        limit = limit_density_alpha_half(
            LimitState(coeffs=limit_coeffs, phi=params_x.phi))
        ks_values.append(ks_distance(batch, limit.cdf))
    ks_ok = max(ks_values) <= 0.05

    def run_cli(threads, out):
        argv = [sys.executable, "-m", "macrobell.cli", "sample",
                "--N", "800", "--povm", "sx", "--state", "w",
                "--n-samples", "2000", "--seed", "7",
                "--threads", str(threads), "--out", str(out)]
        env = src_env()
        env.pop("MACROBELL_THREADS", None)
        subprocess.run(argv, check=True, capture_output=True, env=env)
        return out.read_bytes()

    thread_ok = (run_cli(1, tmp_path / "one.csv")
                 == run_cli(4, tmp_path / "four.csv"))

    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0
    record_criterion(
        10, "sampler fidelity: exact-pmf chi-square, KS <= 0.05 at N=800, "
            "thread-count reproducibility (< 5 min)",
        chi_ok and ks_ok and thread_ok and time_ok)
    assert chi_ok, "; ".join(chi_report)
    assert ks_ok, f"KS distances {ks_values}"
    assert thread_ok, "thread counts changed the sampled bytes"
    assert time_ok, f"took {elapsed:.0f} s"


def test_criterion_11_scaling_rule(sigma_x):
    n_list = (100, 200, 400, 800)
    beta_product = scaling_exponent(lambda n: single_level(n, 0), sigma_x,
                                    n_list)
    beta_shared = scaling_exponent(lambda n: single_level(n, 1), sigma_x,
                                   n_list)
    product_ok = abs(beta_product - 0.5) <= 0.01
    shared_ok = abs(beta_shared - 0.5) <= 0.01
    record_criterion(
        11, "variance-scaling exponent 0.5 +- 0.01 for the product and "
            "shared-excitation families",
        product_ok and shared_ok)
    assert product_ok, f"product family beta {beta_product!r}"
    assert shared_ok, f"shared-excitation family beta {beta_shared!r}"
