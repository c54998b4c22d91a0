"""The shared unit-coefficient check and the engines that apply it."""

import math

import numpy as np
import pytest

from macrobell.bell import BellConfig, local_model_alpha_one, optimize_chsh
from macrobell.errors import ValidationError, check_unit_vector
from macrobell.finite_n import DickeSuperposition
from macrobell.limits import LimitState, limit_density_alpha_one

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
