"""The shared unit-coefficient, alpha and integer checks and the engines that apply them."""

import math

import numpy as np
import pytest

from macrobell.bell import BellConfig, local_model_alpha_one, optimize_chsh
from macrobell.cli import run
from macrobell.errors import ValidationError, check_alpha, check_unit_vector
from macrobell.finite_n import DickeSuperposition, char_fn_finite, pmf_finite
from macrobell.limits import LimitState, limit_density_alpha_one
from macrobell.povm import derive_params, projective_from_bloch
from macrobell.sampling import sample_outcomes, scaling_exponent

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
_W = DickeSuperposition.w_state(6)

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


# A count or level that is not an integer used to be truncated, misused or
# left to fail inside numpy.
INTEGER_SITES = {
    "N-10.5": lambda: DickeSuperposition(10.5, np.array([1.0])),
    "N-10.0": lambda: DickeSuperposition(10.0, np.array([1.0])),
    "base_level": lambda: DickeSuperposition(10, np.array([1.0]), base_level=1.5),
    "dicke-level": lambda: DickeSuperposition.dicke(10, 2.7),
    "n_samples": lambda: sample_outcomes(_W, _SX, derive_params(_SX), 0.5, 2.5, seed=0),
    "n_list": lambda: scaling_exponent(lambda n: DickeSuperposition.dicke(n, 0), _SX,
                                       [10, 20.5, 40, 80]),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_non_integer_counts_rejected(site):
    with pytest.raises(ValidationError, match="integer"):
        INTEGER_SITES[site]()


def test_alpha_flag_rejected(capsys):
    assert run(["dist", "--N", "6", "--povm", "sx", "--state", "w",
                "--alpha", "0.7"]) == 1
    assert "alpha must be 0.5 or 1.0" in capsys.readouterr().err
