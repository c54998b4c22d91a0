"""Sign overlaps, CHSH machinery, bipartite densities, and the local model."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobell import bell
from macrobell.bell import (
    BellConfig,
    JointGridDensity,
    bipartite_density_alpha_half,
    chsh_value,
    correlator,
    local_model_alpha_one,
    optimize_chsh,
    sign_overlap_table,
    signed_line_integral,
    smoothed_sign_overlap_table,
)
from macrobell.errors import CapExceededError, ValidationError
from macrobell.noise import _smoothed_sign

from conftest import src_env

PAPER = np.array([2 / math.sqrt(10), 1 / math.sqrt(2), 1 / math.sqrt(10)],
                 dtype=complex)
CHSH_OPT = 2.0 * math.sqrt(10.0) / math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)


def paper_config(phi_a=0.0, phi_ap=math.pi / 2, phi_b=-math.pi / 4,
                 phi_bp=math.pi / 4):
    return BellConfig(schmidt_coeffs=PAPER, phi_a=phi_a, phi_a_prime=phi_ap,
                      phi_b=phi_b, phi_b_prime=phi_bp)


def test_sign_overlap_closed_forms():
    table = sign_overlap_table(2).values
    assert table[0, 1] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
    assert table[1, 2] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
    assert table[1, 0] == table[0, 1]


def test_sign_overlap_parity_zeros_exact():
    table = sign_overlap_table(5).values
    k = np.arange(6)
    even_mask = (k[:, None] + k[None, :]) % 2 == 0
    assert np.all(table[even_mask] == 0.0)


def test_sign_overlap_quadrature_stability():
    coarse = sign_overlap_table(6, nodes=600).values
    fine = sign_overlap_table(6, nodes=1200).values
    assert np.max(np.abs(coarse - fine)) <= 1e-10
    # Smeared kernels at the 16-level cap against a truncated-Gaussian step.
    ramp = _smoothed_sign("truncated_gaussian", 0.25)
    coarse, fine = (smoothed_sign_overlap_table(15, 0.3, 0.25, ramp, nodes=n).values
                    for n in (600, 1200))
    assert np.max(np.abs(coarse - fine)) <= 1e-11


def test_sign_overlap_closed_forms_to_rounding():
    table = sign_overlap_table(6).values
    assert abs(table[0, 1] - math.sqrt(2.0 / math.pi)) <= 2e-15
    assert abs(table[1, 2] - 1.0 / math.sqrt(math.pi)) <= 2e-15


def test_optimized_chsh_is_the_closed_form_to_rounding():
    assert abs(optimize_chsh(PAPER).value - CHSH_OPT) <= 1e-14


@pytest.mark.parametrize("nodes", [0, -1, 2.5, 600.0])
def test_tables_reject_bad_node_counts(nodes):
    ramp = _smoothed_sign("uniform", 0.25)
    sign_overlap_table(3, nodes=600)  # a cached int entry must not answer for 600.0
    with pytest.raises(ValidationError):
        sign_overlap_table(3, nodes=nodes)
    with pytest.raises(ValidationError):
        smoothed_sign_overlap_table(3, 0.3, 0.25, ramp, nodes=nodes)


@pytest.mark.parametrize("k_max", [2.5, 3.0, -1, "3", math.nan])
def test_tables_reject_k_max_that_is_not_a_nonnegative_integer(k_max):
    # int() used to truncate 2.5 silently to the k_max = 2 table.
    ramp = _smoothed_sign("uniform", 0.25)
    with pytest.raises(ValidationError, match="k_max"):
        sign_overlap_table(k_max)
    with pytest.raises(ValidationError, match="k_max"):
        smoothed_sign_overlap_table(k_max, 0.3, 0.25, ramp)


def test_smoothed_table_reduces_to_sign_table():
    assert smoothed_sign_overlap_table(4).values is sign_overlap_table(4).values
    for bad in ({"width": -0.1}, {"edge": math.nan}, {"width": math.inf}):
        with pytest.raises(ValidationError):
            smoothed_sign_overlap_table(4, **bad)


def test_sign_overlap_is_readonly():
    table = sign_overlap_table(3).values
    with pytest.raises(ValueError):
        table[0, 1] = 0.0


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=50, deadline=None)
def test_paper_correlator_closed_form(phi_a, phi_b):
    config = BellConfig(schmidt_coeffs=PAPER, phi_a=phi_a, phi_a_prime=0.0,
                        phi_b=phi_b, phi_b_prime=0.0)
    expected = math.sqrt(5.0) / math.pi * math.cos(phi_a + phi_b)
    assert correlator(config, "AB") == pytest.approx(expected, abs=1e-9)


@given(st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_correlator_depends_only_on_angle_sum(shift):
    base = BellConfig(schmidt_coeffs=PAPER, phi_a=0.4, phi_a_prime=0.0,
                      phi_b=-0.9, phi_b_prime=0.0)
    moved = BellConfig(schmidt_coeffs=PAPER, phi_a=0.4 + shift,
                       phi_a_prime=0.0, phi_b=-0.9 - shift, phi_b_prime=0.0)
    assert correlator(base, "AB") == pytest.approx(correlator(moved, "AB"),
                                                   abs=1e-12)


def test_chsh_paper_value():
    assert chsh_value(paper_config()) == pytest.approx(CHSH_OPT, abs=1e-9)


def test_correlator_rejects_unknown_pair():
    with pytest.raises(ValidationError):
        correlator(paper_config(), "BA")


def test_optimizer_recovers_paper_optimum():
    result = optimize_chsh(PAPER)
    assert result.value >= CHSH_OPT - 1e-9
    assert chsh_value(BellConfig(
        schmidt_coeffs=PAPER, phi_a=result.angles[0],
        phi_a_prime=result.angles[1], phi_b=result.angles[2],
        phi_b_prime=result.angles[3])) == pytest.approx(result.value, abs=1e-9)


def test_optimizer_two_level_equal_superposition():
    coeffs = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    result = optimize_chsh(coeffs)
    assert result.value == pytest.approx(4.0 * math.sqrt(2.0) / math.pi,
                                         abs=1e-9)


@pytest.mark.parametrize("coeffs", [PAPER, np.full(8, 1.0 / math.sqrt(8.0)),
                                    np.full(16, 0.25)], ids=["paper", "equal8", "equal16"])
def test_optimizer_ignores_last_bit_noise_in_the_sign_table(monkeypatch, coeffs):
    # The equal:8 and equal:16 scans have maxima that agree to the last bit;
    # relative noise of 1e-14 in the table used to move their angles by up to 5 rad.
    reference = np.array(optimize_chsh(coeffs).angles)
    clean = sign_overlap_table(coeffs.size - 1).values
    rng = np.random.default_rng(3)
    for _ in range(10):
        noisy = bell.SignOverlapTable(clean * (1.0 + 1e-14 * rng.normal(size=clean.shape)))
        monkeypatch.setattr(bell, "sign_overlap_table", lambda k_max: noisy)
        assert np.max(np.abs(np.array(optimize_chsh(coeffs).angles) - reference)) <= 1e-6


def test_single_level_state_has_zero_correlation():
    result = optimize_chsh(np.array([1.0 + 0.0j]))
    assert abs(result.value) <= 1e-12


@given(st.integers(2, 5), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_optimized_value_respects_tsirelson(d, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    coeffs /= np.linalg.norm(coeffs)
    result = optimize_chsh(coeffs)
    assert 0.0 <= result.value <= TSIRELSON + 1e-9


def coordinate_descent_chsh(coeffs):
    """The former refinement: coarse pi/36 start, then bounded line searches
    on one angle at a time, kept as the oracle for the Newton refinement."""
    from scipy.optimize import minimize_scalar

    table = sign_overlap_table(coeffs.size - 1).values
    d = coeffs.size
    cross = np.outer(np.conj(coeffs), coeffs) * table[:d, :d] ** 2
    offsets = np.arange(d)[None, :] - np.arange(d)[:, None]

    def g(phase_sum):
        return float(np.real(np.sum(cross * np.exp(1j * phase_sum * offsets))))

    def chsh(x):
        a, ap, b, bp = x
        return g(a + b) + g(a + bp) + g(ap + b) - g(ap + bp)

    n = 72
    step = 2.0 * math.pi / n
    grid = np.array([g(step * i) for i in range(n)])
    shifted = grid[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n]
    best = (-np.inf, 0, 0, 0, 0)
    for ia in range(n):
        plus = shifted[ia][None, :] + shifted
        minus = shifted[ia][None, :] - shifted
        ib, ibp = plus.argmax(axis=1), minus.argmax(axis=1)
        totals = plus[np.arange(n), ib] + minus[np.arange(n), ibp]
        iap = int(totals.argmax())
        if totals[iap] > best[0]:
            best = (float(totals[iap]), ia, iap, int(ib[iap]), int(ibp[iap]))
    angles = np.array(best[1:], dtype=float) * step
    value = best[0]
    for _ in range(200):
        previous = value
        for axis in range(4):
            def negated(t, axis=axis):
                trial = angles.copy()
                trial[axis] = t
                return -chsh(trial)

            res = minimize_scalar(negated, bounds=(angles[axis] - step, angles[axis] + step),
                                  method="bounded", options={"xatol": 1e-12})
            if -res.fun > value:
                angles[axis], value = float(res.x), -res.fun
        if value - previous < 1e-10:
            break
    return value


def oracle_states():
    yield "paper", PAPER
    for d in (2, 3, 8, 16):
        yield f"equal:{d}", np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    # Seed 107 holds five states (d = 6, 9, 12, 15, 16) on which Newton steps
    # with signed instead of absolute curvatures stop 1e-4 to 2e-3 short.
    rng = np.random.default_rng(107)
    for i in range(150):
        d = 1 + i % 16
        c = rng.normal(size=d) + 1j * rng.normal(size=d)
        yield f"random-{i}-d{d}", c / np.linalg.norm(c)


def test_newton_refinement_matches_coordinate_descent():
    # The Newton value may exceed the oracle (which stops on a small sweep
    # gain short of the peak) but never falls below it.
    for name, coeffs in oracle_states():
        result = optimize_chsh(coeffs)
        oracle = coordinate_descent_chsh(coeffs)
        assert result.value >= oracle - 1e-10, name
        assert abs(result.value - oracle) <= 1e-9, name
        config = BellConfig(coeffs, *result.angles)
        assert abs(chsh_value(config) - result.value) <= 1e-12, name


def test_schmidt_rank_cap():
    coeffs = np.full(17, 1.0 / math.sqrt(17.0), dtype=complex)
    with pytest.raises(CapExceededError):
        optimize_chsh(coeffs)


def test_signed_line_integral_odd_function():
    # sign(x) * x * exp(-x^2/2) integrates to 2 * (1 - exp(-50)).
    x = np.linspace(-10.0, 10.0, 4001)
    values = x * np.exp(-(x**2) / 2.0)
    signed = signed_line_integral(x, values)
    assert signed == pytest.approx(2.0 * (1.0 - math.exp(-50.0)), abs=1e-9)


def test_signed_line_integral_needs_zero_node():
    x = np.linspace(0.1, 5.0, 50)
    with pytest.raises(ValidationError):
        signed_line_integral(x, np.ones_like(x))


def test_bipartite_density_normalization_and_marginals():
    config = paper_config()
    joint = bipartite_density_alpha_half(config)
    assert joint.integral() == pytest.approx(1.0, abs=1e-8)
    weights = np.abs(PAPER) ** 2
    from macrobell.limits import smeared_level_kernel

    mx = joint.marginal_x()
    mixture = sum(w * smeared_level_kernel(k, k, mx.grid, 0.0)
                  for k, w in enumerate(weights))
    np.testing.assert_allclose(mx.density, mixture, atol=1e-10)


def test_bipartite_marginals_ignore_other_party_width():
    config = BellConfig(schmidt_coeffs=PAPER, phi_a=0.3, phi_a_prime=0.0,
                        phi_b=-0.2, phi_b_prime=0.0)
    joint = bipartite_density_alpha_half(config, width_b=0.8)
    clean = paper_config()
    reference = bipartite_density_alpha_half(clean)
    np.testing.assert_allclose(joint.marginal_x().density,
                               reference.marginal_x().density, atol=1e-10)


@pytest.mark.parametrize("widths", [{"width_a": -0.1}, {"width_b": -1e-3},
                                    {"width_a": math.nan}])
def test_bipartite_density_rejects_bad_widths(widths):
    with pytest.raises(ValidationError, match="widths"):
        bipartite_density_alpha_half(paper_config(), **widths)


def test_sign_correlator_matches_analytic():
    config = paper_config(phi_a=0.35, phi_b=-0.6)
    joint = bipartite_density_alpha_half(config)
    expected = math.sqrt(5.0) / math.pi * math.cos(0.35 - 0.6)
    assert joint.sign_correlator() == pytest.approx(expected, abs=1e-8)


def test_local_model_two_routes_agree():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    c /= np.linalg.norm(c)
    result = local_model_alpha_one(c, 0.8, -1.1)
    assert result.max_discrepancy <= 1e-12
    assert result.quantum_joint.integral() == pytest.approx(1.0, abs=1e-9)
    assert result.lhv_joint.integral() == pytest.approx(1.0, abs=1e-9)


def loop_lhv_density(c, phi_a, phi_b, theta_a, theta_b):
    """The former hidden-variable route: a cos/sin accumulation per (k, l)."""
    lhv = np.zeros((theta_a.size, theta_b.size))
    for sa in (1.0, -1.0):
        lam1 = sa * theta_a - phi_a
        for sb in (1.0, -1.0):
            lam2 = sb * theta_b - phi_b
            re = np.zeros_like(lhv)
            im = np.zeros_like(lhv)
            for i in range(c.shape[0]):
                for j in range(c.shape[1]):
                    arg = i * lam1[:, None] + j * lam2[None, :]
                    re += c[i, j].real * np.cos(arg) + c[i, j].imag * np.sin(arg)
                    im += c[i, j].imag * np.cos(arg) - c[i, j].real * np.sin(arg)
            lhv += re**2 + im**2
    return lhv / (2.0 * np.pi) ** 2


@pytest.mark.parametrize("shape", [(3, 4), (8, 8)])
def test_separable_lhv_matches_loop(shape):
    rng = np.random.default_rng(sum(shape))
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c /= np.linalg.norm(c)
    theta_a, theta_b = np.linspace(0.0, math.pi, 61), np.linspace(0.0, math.pi, 47)
    result = local_model_alpha_one(c, 0.7, -1.3, theta_grids=(theta_a, theta_b))
    expected = loop_lhv_density(c, 0.7, -1.3, theta_a, theta_b)
    np.testing.assert_allclose(result.lhv_joint.density, expected, rtol=0.0, atol=1e-13)


def test_bell_and_noise_imports_stay_light():
    # bell and noise, and every call the chsh, noise-sweep, local-model and
    # channel commands make, load no scipy; noise loads neither the Bell nor
    # the finite-N stack until a function asks for it.
    script = ("import sys, numpy as np, macrobell.bell, macrobell.noise\n"
              "from macrobell.bell import local_model_alpha_one, optimize_chsh\n"
              "from macrobell.noise import NoiseSpec, noisy_chsh_sweep, noisy_limit_params\n"
              "from macrobell.povm import projective_from_bloch\n"
              "paper = np.array([2, 5 ** 0.5, 1]) / 10 ** 0.5\n"
              "optimize_chsh(paper)\n"
              "noisy_chsh_sweep(paper, [0.0, 0.2], [0.0, 0.3], shape='truncated_gaussian')\n"
              "local_model_alpha_one(np.eye(2) / 2 ** 0.5, 0.3, 0.1)\n"
              "noisy_limit_params(projective_from_bloch(1.5, 0.0), NoiseSpec(depol_lambda=0.1))\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")
    first = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True, env=src_env())
    assert first.stdout.split() == []
    script = ("import sys, macrobell.noise\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('macrobell'))))\n")
    second = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True, env=src_env())
    loaded = second.stdout.split()
    assert "macrobell.noise" in loaded
    assert "macrobell.bell" not in loaded and "macrobell.finite_n" not in loaded


def test_local_model_product_state_factorizes():
    from macrobell.limits import limit_density_alpha_one

    u = np.array([0.6, 0.8], dtype=complex)
    v = np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0)
    c = np.outer(u, v)
    result = local_model_alpha_one(c, 0.2, 0.9)
    rotor_a = limit_density_alpha_one(u, 0.2,
                                      theta_grid=result.quantum_joint.x_grid)
    rotor_b = limit_density_alpha_one(v, 0.9,
                                      theta_grid=result.quantum_joint.y_grid)
    product = np.outer(rotor_a.density, rotor_b.density)
    np.testing.assert_allclose(result.quantum_joint.density, product,
                               atol=1e-12)


def _binned_correlator(joint: JointGridDensity) -> float:
    """+-1 binning at theta = pi/2 on both axes of a rotor joint."""
    half = math.pi / 2.0
    signed_rows = signed_line_integral(joint.y_grid - half, joint.density,
                                       axis=1)
    return float(signed_line_integral(joint.x_grid - half, signed_rows,
                                      axis=0))


def test_lhv_binnings_respect_chsh():
    rng = np.random.default_rng(11)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c /= np.linalg.norm(c)
    a, ap, b, bp = 0.15, 1.3, -0.5, 0.7
    grid = np.linspace(0.0, math.pi, 201)

    def corr(phi_a, phi_b):
        result = local_model_alpha_one(c, phi_a, phi_b,
                                       theta_grids=(grid, grid))
        return _binned_correlator(result.lhv_joint)

    s = corr(a, b) + corr(a, bp) + corr(ap, b) - corr(ap, bp)
    assert abs(s) <= 2.0 + 1e-9
