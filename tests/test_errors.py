"""The shared unit-coefficient, alpha, integer, real-parameter, value-list
and grid checks and the engines that apply them."""

import math
import re

import numpy as np
import pytest

from macrobell.bell import (BellConfig, JointGridDensity, bipartite_density_alpha_half,
                            local_model_alpha_one, optimize_chsh, sign_overlap_table,
                            smoothed_sign_overlap_table)
from macrobell.cli import run
from macrobell.errors import (InvalidLossError, ValidationError, check_alpha, check_grid,
                              check_integer, check_real, check_real_array, check_unit_vector)
from macrobell.finite_n import (DickeSuperposition, LatticePmf, brute_force_char_fn,
                                char_fn_finite, lattice_char_fn, moments_finite, pmf_finite)
from macrobell.limits import (GridDensity, LimitState, default_real_grid, default_rotor_grid,
                              gauss_legendre, hermite, level_kernels, limit_charfn_alpha_half,
                              limit_density_alpha_half, limit_density_alpha_one,
                              oscillator_wavefunction, real_half_width, rotor_pushforward,
                              smeared_level_kernel, verify_hermite_lemma)
from macrobell.noise import (NoiseSpec, dephase_povm, depolarize_povm, loss_char_fn_finite,
                             loss_width, lossy_povm, noisy_chsh_sweep)
from macrobell.povm import derive_params, projective_from_bloch, validate_povm
from macrobell.sampling import SampleBatch, sample_outcomes, scaling_exponent

SITES = {
    "DickeSuperposition": lambda c: DickeSuperposition(5, c),
    "LimitState": lambda c: LimitState(coeffs=c),
    "limit_density_alpha_one": lambda c: limit_density_alpha_one(c, 0.0),
    "BellConfig": lambda c: BellConfig(schmidt_coeffs=c),
    "optimize_chsh": optimize_chsh,
    "local_model_alpha_one": lambda c: local_model_alpha_one(np.outer(c, [1.0]), 0.0, 0.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_coefficients_rejected(site, bad):
    with pytest.raises(ValidationError, match="finite"):
        SITES[site](np.array([bad, 1.0]))
    with pytest.raises(ValidationError, match="finite"):
        SITES[site](np.array([bad]))


@pytest.mark.parametrize("site", sorted(SITES))
def test_unit_coefficients_accepted(site):
    SITES[site](np.array([0.6, 0.8j]))


def test_check_unit_vector_shape_and_norm():
    assert check_unit_vector([0.6, 0.8]).dtype == complex
    with pytest.raises(ValidationError):
        check_unit_vector([])
    with pytest.raises(ValidationError):
        check_unit_vector([[1.0]])
    with pytest.raises(ValidationError):
        check_unit_vector([1.0], ndim=2)
    with pytest.raises(ValidationError, match="norm"):
        check_unit_vector([1.0, 1e-5])
    check_unit_vector([1.0, 1e-7])


_SX = projective_from_bloch(math.pi / 2.0, 0.0)
_PARAMS = derive_params(_SX)
_W = DickeSuperposition.w_state(6)
_X = np.linspace(-3.0, 3.0, 7)
_PAPER = np.array([2.0, math.sqrt(5.0), 1.0]) / math.sqrt(10.0)

ALPHA_SITES = {
    "pmf_finite": lambda a: pmf_finite(_W, _SX, derive_params(_SX), a),
    "char_fn_finite": lambda a: char_fn_finite(_W, _SX, derive_params(_SX), a, 0.5),
    "sample_outcomes": lambda a: sample_outcomes(_W, _SX, derive_params(_SX), a, 4, seed=0),
}


def test_check_alpha_values():
    assert check_alpha(0.5) == 0.5 and check_alpha(1) == 1.0
    assert isinstance(check_alpha(1), float)
    for bad in (0.7, 0.0, math.nan, "x", None):
        with pytest.raises(ValidationError, match="alpha must be 0.5 or 1.0"):
            check_alpha(bad)


@pytest.mark.parametrize("bad", [0.7, math.nan], ids=["0.7", "nan"])
@pytest.mark.parametrize("site", sorted(ALPHA_SITES))
def test_alpha_rejected_at_every_site(site, bad):
    with pytest.raises(ValidationError, match="alpha must be 0.5 or 1.0"):
        ALPHA_SITES[site](bad)


# site -> (parameter named in the message, call with the value, a valid value)
INTEGER_SITES = {
    "N": ("n_particles", lambda v: DickeSuperposition(v, np.array([1.0])), 10),
    "base_level": ("base_level",
                   lambda v: DickeSuperposition(10, np.array([1.0]), base_level=v), 1),
    "dicke-level": ("base_level", lambda v: DickeSuperposition.dicke(10, v), 2),
    "n_samples": ("n_samples", lambda v: sample_outcomes(_W, _SX, _PARAMS, 0.5, v, seed=0), 4),
    "seed": ("seed", lambda v: sample_outcomes(_W, _SX, _PARAMS, 0.5, 4, seed=v), 3),
    "n_list": ("particle count",
               lambda v: scaling_exponent(lambda n: DickeSuperposition.dicke(n, 0), _SX,
                                          [10, v, 40, 80]), 20),
    "order": ("order", lambda v: moments_finite(_W, _SX, _PARAMS, 0.5, order=v), 2),
    "hermite": ("k", lambda v: hermite(v, _X), 3),
    "oscillator_wavefunction": ("k", lambda v: oscillator_wavefunction(v, _X), 3),
    "level_kernels-k_max": ("k_max", lambda v: level_kernels(v, _X, 0.0), 3),
    "level_kernels-k_min": ("k_min", lambda v: level_kernels(3, _X, 0.3, v), 1),
    "smeared_level_kernel-k": ("k", lambda v: smeared_level_kernel(v, 2, _X, 0.1), 1),
    "smeared_level_kernel-l": ("l", lambda v: smeared_level_kernel(1, v, _X, 0.1), 2),
    "real_half_width": ("k_max", real_half_width, 3),
    "default_real_grid-k_max": ("k_max", default_real_grid, 3),
    "default_real_grid-points": ("points", lambda v: default_real_grid(3, v), 11),
    "default_rotor_grid": ("points", default_rotor_grid, 11),
    "gauss_legendre": ("nodes", gauss_legendre, 5),
    "verify_hermite_lemma-m": ("m", lambda v: verify_hermite_lemma(v, 2, 0.5, 1.0), 1),
    "verify_hermite_lemma-n": ("n", lambda v: verify_hermite_lemma(1, v, 0.5, 1.0), 2),
    "sign_overlap_table-k_max": ("k_max", sign_overlap_table, 3),
    "sign_overlap_table-nodes": ("nodes", lambda v: sign_overlap_table(3, nodes=v), 50),
    "smoothed_sign_overlap_table-k_max": (
        "k_max", lambda v: smoothed_sign_overlap_table(v, 0.3, 0.25), 3),
    "smoothed_sign_overlap_table-nodes": (
        "nodes", lambda v: smoothed_sign_overlap_table(3, 0.3, 0.25, nodes=v), 50),
}


# The values each count or level used to be truncated at, misused as or
# left to fail inside numpy.
@pytest.mark.parametrize("site, value", [("N", 10.5), ("N", 10.0), ("base_level", 1.5),
                                         ("dicke-level", 2.7), ("n_samples", 2.5),
                                         ("n_list", 20.5)],
                         ids=["N-10.5", "N-10.0", "base_level", "dicke-level", "n_samples",
                              "n_list"])
def test_non_integer_counts_rejected(site, value):
    with pytest.raises(ValidationError, match="integer"):
        INTEGER_SITES[site][1](value)


# 2.5 and "3" reached numpy as a raw TypeError or IndexError at several
# sites, and True passed as 1 at most.
@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_count_is_an_integer_other_than_a_bool(site, bad):
    name, call, _ = INTEGER_SITES[site]
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be an integer")):
        call(bad)


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_count_accepts_python_and_numpy_integers(site):
    _, call, good = INTEGER_SITES[site]
    call(good)
    call(np.int64(good))


def _ramp(x):
    """The sign smoothed by uniform noise on [-0.25, 0.25], on [0, 0.25]."""
    return x / 0.25


# site -> (parameter named in the message, call with the value, a value
# outside its range or None for an unbounded one)
REAL_SITES = {
    "LimitState-phi": ("phi", lambda v: LimitState(_PAPER, phi=v), None),
    "LimitState-width": ("width", lambda v: LimitState(_PAPER, width=v), -0.1),
    "limit_density_alpha_one": ("phi", lambda v: limit_density_alpha_one(_PAPER, v), None),
    "level_kernels": ("s", lambda v: level_kernels(2, _X, v), -0.1),
    "real_half_width": ("width", lambda v: real_half_width(3, v), -0.1),
    "limit_charfn_alpha_half": ("t", lambda v: limit_charfn_alpha_half(LimitState(_PAPER), v),
                                None),
    "char_fn_finite-t": ("t", lambda v: char_fn_finite(_W, _SX, _PARAMS, 0.5, v), None),
    "brute_force_char_fn": ("t", lambda v: brute_force_char_fn(_W, _SX, _PARAMS, 0.5, v), None),
    "loss_char_fn_finite": ("t", lambda v: loss_char_fn_finite(_W, _SX, _PARAMS, 0.7, v), None),
    "lattice_char_fn": ("t", lambda v: lattice_char_fn([0.0, 1.0], [0.5, 0.5], v), None),
    "verify_hermite_lemma-beta": ("beta", lambda v: verify_hermite_lemma(1, 2, v, 1.0), 0.0),
    "verify_hermite_lemma-gamma": ("gamma", lambda v: verify_hermite_lemma(1, 2, 0.5, v), 0.0),
    "smoothed_sign_overlap_table-width": (
        "width", lambda v: smoothed_sign_overlap_table(3, v, 0.25, _ramp), -0.1),
    "smoothed_sign_overlap_table-edge": (
        "edge", lambda v: smoothed_sign_overlap_table(3, 0.3, v, _ramp), -0.1),
    **{f"BellConfig-{name}": (name, lambda v, name=name: BellConfig(_PAPER, **{name: v}), None)
       for name in ("phi_a", "phi_a_prime", "phi_b", "phi_b_prime")},
    **{f"bipartite_density_alpha_half-{name}": (
        "widths", lambda v, name=name: bipartite_density_alpha_half(BellConfig(_PAPER),
                                                                    **{name: v}), -0.1)
       for name in ("width_a", "width_b")},
    "local_model_alpha_one-phi_a": (
        "phi_a", lambda v: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), v, 0.0), None),
    "local_model_alpha_one-phi_b": (
        "phi_b", lambda v: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, v), None),
    "derive_params-mu": ("mu override", lambda v: derive_params(_SX, mu=v), None),
    "derive_params-tau": ("tau override", lambda v: derive_params(_SX, tau=v), 0.0),
    "projective_from_bloch-theta": ("theta", lambda v: projective_from_bloch(v, 0.0), None),
    "projective_from_bloch-phi_bloch": (
        "phi_bloch", lambda v: projective_from_bloch(1.0, v), None),
    "validate_povm": ("outcome 1", lambda v: validate_povm([1.0, v], _SX.effects), None),
    "NoiseSpec-loss_p": ("loss_p", lambda v: NoiseSpec(loss_p=v), 1.5),
    "NoiseSpec-depol_lambda": ("depol_lambda", lambda v: NoiseSpec(depol_lambda=v), 1.2),
    "NoiseSpec-dephase_lambda": ("dephase_lambda", lambda v: NoiseSpec(dephase_lambda=v), -0.1),
    "loss_width": ("detection probability p", lambda v: loss_width(_PARAMS, v), 0.0),
    "lossy_povm": ("detection probability p", lambda v: lossy_povm(_SX, _PARAMS, v), 1.5),
    "depolarize_povm": ("depolarizing strength", lambda v: depolarize_povm(_SX, v), 1.0001),
    "dephase_povm": ("dephasing strength", lambda v: dephase_povm(_SX, v), -0.1),
}

#: detection probabilities keep their own error class (CLI code invalid_loss)
_LOSS_SITES = {"NoiseSpec-loss_p", "loss_width", "lossy_povm"}

_REAL_CASES = [(site, bad) for site in sorted(REAL_SITES)
               for bad in (math.nan, math.inf, -math.inf, True)
               + ((REAL_SITES[site][2],) if REAL_SITES[site][2] is not None else ())]


@pytest.mark.parametrize("site, bad", _REAL_CASES,
                         ids=[f"{site}-{bad!r}" for site, bad in _REAL_CASES])
def test_every_real_parameter_is_finite_and_in_range(site, bad):
    name, call, _ = REAL_SITES[site]
    error = InvalidLossError if site in _LOSS_SITES else ValidationError
    with pytest.raises(error, match=re.escape(f"{name} must be a finite scalar")):
        call(bad)


def test_check_integer_and_check_real_values():
    assert type(check_integer(np.int64(7), "n", 1, 7)) is int
    assert type(check_real(3, "x")) is float and check_real(np.float32(0.5), "x", 0, 1) == 0.5
    assert check_real(1, "p", 0, 1, open_low=True) == 1.0
    for bad in (0, 8, True, 2.0, "2", None):
        with pytest.raises(ValidationError, match=r"n must be an integer in \[1, 7\], got"):
            check_integer(bad, "n", 1, 7)
    for bad in (0, 1.5, math.nan, True, "0.5", None, 1j, 10**400):
        with pytest.raises(InvalidLossError, match=r"p must be a finite scalar in \(0, 1\]"):
            check_real(bad, "p", 0, 1, open_low=True, error=InvalidLossError)
    with pytest.raises(ValidationError, match="x must be a finite scalar >= 0, got -1"):
        check_real(-1, "x", 0)


def test_check_real_array_is_check_real_elementwise():
    values = check_real_array([1, 2.5, np.float32(0.5)], "t")
    assert values.dtype == np.float64 and values.tolist() == [1.0, 2.5, 0.5]
    assert check_real_array(3, "t").shape == () and check_real_array(3, "t") == 3.0
    for bad in ([0.0, math.nan], np.array([1.0, -math.inf]), np.array([True]), [1.0, None],
                1j, "0.5", 10**400, [0.5, True], [[0.5], [np.True_]], [[0.5], [0.5, 1.0]]):
        with pytest.raises(ValidationError, match="t must be a finite scalar or an array"):
            check_real_array(bad, "t")


def test_check_real_array_bounds_and_dimension():
    values = check_real_array([0.0, 2.0], "eps", 0, 2, ndim=1)
    assert values.tolist() == [0.0, 2.0] and not values.flags.writeable
    check_real_array([0.5], "x", -1, 1, exclusive=True, ndim=1)
    for bad, text in ((-0.1, r">= 0"), ([[0.0]], r"nonempty 1-d real array >= 0"),
                      ([], r"nonempty 1-d real array >= 0")):
        with pytest.raises(ValidationError, match=f"eps must be a finite .*{text}, got"):
            check_real_array(bad, "eps", 0, ndim=None if np.ndim(bad) == 0 else 1)
    for bad in ([-1.0, 0.0], [0.0, 1.0]):
        with pytest.raises(ValidationError, match=r"x must be .* in \(-1, 1\), got"):
            check_real_array(bad, "x", -1, 1, exclusive=True)


def test_check_grid_points_and_order():
    assert check_grid([1, 2], "g").tolist() == [1.0, 2.0]
    assert check_grid([0.5], "values", points=1).tolist() == [0.5]
    for bad in ([0.5], [1.0, 1.0], [2.0, 1.0], [0.0, math.nan]):
        with pytest.raises(ValidationError, match="g must be a "):
            check_grid(bad, "g")


_G = np.array([0.1, 0.2, 0.3])
_ROTOR = limit_density_alpha_one(_PAPER, 0.0)
_ROTOR_OUT = np.array([-0.1, 0.2, 0.3])

# site -> (parameter named in the message, call with the array, its kind, an
# array with one value outside the domain or None).  A "grid" is a strictly
# increasing axis of at least 2 points (lattice values: 1), a "list" a
# nonempty 1-d value list in any order, an "array" finite values of any shape.
ARRAY_SITES = {
    "GridDensity-grid": ("grid", lambda v: GridDensity(v, np.ones(3)), "grid", None),
    "GridDensity-density": ("density", lambda v: GridDensity(_G, v), "array", None),
    "JointGridDensity-x_grid": (
        "x_grid", lambda v: JointGridDensity(v, _G, np.ones((3, 3))), "grid", None),
    "JointGridDensity-y_grid": (
        "y_grid", lambda v: JointGridDensity(_G, v, np.ones((3, 3))), "grid", None),
    "JointGridDensity-density": ("density", lambda v: JointGridDensity(_G, _G, v), "array", None),
    "LatticePmf-values": ("values", lambda v: LatticePmf(v, np.ones(3) / 3.0), "grid", None),
    "LatticePmf-probs": ("probs", lambda v: LatticePmf(_G, v), "array", None),
    "SampleBatch": ("values", lambda v: SampleBatch(v, 2, 0, np.size(v)), "list", None),
    "limit_density_alpha_half": (
        "grid", lambda v: limit_density_alpha_half(LimitState(_PAPER), v), "grid", None),
    "limit_density_alpha_one": (
        "theta_grid", lambda v: limit_density_alpha_one(_PAPER, 0.0, v), "grid", _ROTOR_OUT),
    "rotor_pushforward": ("x_grid", lambda v: rotor_pushforward(_ROTOR, v), "grid",
                          np.array([0.1, 0.2, 1.0])),
    "bipartite_density_alpha_half-x_grid": (
        "x_grid", lambda v: bipartite_density_alpha_half(BellConfig(_PAPER), x_grid=v),
        "grid", None),
    "bipartite_density_alpha_half-y_grid": (
        "y_grid", lambda v: bipartite_density_alpha_half(BellConfig(_PAPER), y_grid=v),
        "grid", None),
    "lattice_char_fn-values": (
        "values", lambda v: lattice_char_fn(v, np.ones(3) / 3.0, 1.0), "grid", None),
    "lattice_char_fn-weights": ("weights", lambda v: lattice_char_fn(_G, v, 1.0), "list", None),
    "local_model_alpha_one-theta_a": (
        "theta_grids", lambda v: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, 0.0,
                                                       (v, _G)), "grid", _ROTOR_OUT),
    "local_model_alpha_one-theta_b": (
        "theta_grids", lambda v: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, 0.0,
                                                       (_G, v)), "grid", _ROTOR_OUT),
    "noisy_chsh_sweep-s_grid": (
        "s_grid", lambda v: noisy_chsh_sweep(_PAPER, v, [0.0]), "list", np.array([0.1, -0.2])),
    "noisy_chsh_sweep-eps_grid": (
        "eps_grid", lambda v: noisy_chsh_sweep(_PAPER, [0.0], v), "list", np.array([0.1, -0.2])),
}

_ELEMENT_CASES = {
    "nan": np.array([0.1, math.nan, 0.3]),
    "inf": np.array([0.1, 0.2, math.inf]),
    "bool": np.array([False, True, True]),
    "bool-in-list": [0.1, 0.2, True],
    "complex": _G.astype(complex),
    "strings": _G.astype(str),
}


_ONE_POINT_GRIDS = {"LatticePmf-values", "lattice_char_fn-values"}


def _array_cases(site):
    _, _, kind, outside = ARRAY_SITES[site]
    cases = dict(_ELEMENT_CASES)
    if kind != "array":
        cases["2-d"] = np.stack([_G, _G])
        points = 1 if kind == "list" or site in _ONE_POINT_GRIDS else 2
        cases["too-few"] = _G[:points - 1]
    if kind == "grid":
        cases["not-increasing"] = _G[::-1]
    if outside is not None:
        cases["out-of-domain"] = outside
    return [(site, case, bad) for case, bad in cases.items()]


_ARRAY_CASES = [case for site in sorted(ARRAY_SITES) for case in _array_cases(site)]


# At the parent several of these passed (True as 1, the string "0.1" as 0.1)
# or raised GridTooNarrowError, a raw TypeError, or named the wrong rule.
@pytest.mark.parametrize("site, bad", [(site, bad) for site, _, bad in _ARRAY_CASES],
                         ids=[f"{site}-{case}" for site, case, _ in _ARRAY_CASES])
def test_every_array_input_is_checked_in_errors(site, bad):
    name, call, _, _ = ARRAY_SITES[site]
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be a ")):
        call(bad)


def test_accepted_array_inputs_stay_accepted():
    # decreasing and single-point value lists, numpy float32 and int arrays
    sweep = noisy_chsh_sweep(_PAPER, np.array([0.2, 0.0], dtype=np.float32), [1])
    assert sweep.chsh.shape == (1, 2)
    # a rotor grid up to pi + 1e-12, a one-point lattice, slightly negative probabilities
    limit_density_alpha_one(_PAPER, 0.0, np.linspace(0.0, math.pi + 1e-12, 11))
    local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, 0.0,
                          (np.arange(4), np.linspace(0.0, math.pi + 1e-12, 5)))
    LatticePmf(np.array([0.0]), np.array([1.0]))
    LatticePmf(np.array([0.0, 1.0]), np.array([1.0 + 1e-17, -1e-17]))


# At the parent, unequal sizes broadcast into a wrong sum, and a theta_grids
# that is not a pair raised a bare ValueError or TypeError.
@pytest.mark.parametrize("name, call", [
    ("values and weights", lambda: lattice_char_fn(_G, np.ones(2) / 2.0, 1.0)),
    ("theta_grids", lambda: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, 0.0,
                                                  (_G, _G, _G))),
    ("theta_grids", lambda: local_model_alpha_one(np.eye(2) / math.sqrt(2.0), 0.0, 0.0, 0.5)),
], ids=["unequal-sizes", "grid-triple", "grid-scalar"])
def test_array_arities_are_checked(name, call):
    with pytest.raises(ValidationError, match=f"{name} must "):
        call()


# record -> (build it from the caller's arrays, those arrays, the array fields)
RECORDS = {
    "GridDensity": (GridDensity, (_G, np.ones(3)), ("grid", "density")),
    "JointGridDensity": (JointGridDensity, (_G, _G, np.ones((3, 3))),
                         ("x_grid", "y_grid", "density")),
    "LatticePmf": (LatticePmf, (_G, np.ones(3) / 3.0), ("values", "probs")),
    "SampleBatch": (lambda v: SampleBatch(v, 2, 0, 3), (_G,), ("values",)),
    "DickeSuperposition": (lambda c: DickeSuperposition(5, c), (_PAPER,), ("coeffs",)),
    "LimitState": (LimitState, (_PAPER,), ("coeffs",)),
    "BellConfig": (BellConfig, (_PAPER,), ("schmidt_coeffs",)),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_records_hold_read_only_copies(record):
    build, inputs, fields = RECORDS[record]
    caller = [np.array(a) for a in inputs]
    built = build(*caller)
    for field in fields:
        value = getattr(built, field)
        assert not value.flags.writeable, field
        assert not any(np.shares_memory(value, a) for a in caller), field
    assert all(a.flags.writeable for a in caller)


def test_alpha_flag_rejected(capsys):
    assert run(["dist", "--N", "6", "--povm", "sx", "--state", "w",
                "--alpha", "0.7"]) == 1
    assert "alpha must be 0.5 or 1.0" in capsys.readouterr().err
