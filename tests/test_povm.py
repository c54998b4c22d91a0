"""Operator validation, derived scale parameters, JSON round trip."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobell.errors import (
    DegenerateOffDiagonalError,
    DuplicateOutcomeError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    ValidationError,
)
from macrobell.povm import (
    PAULI_X,
    PAULI_Z,
    common_eigenbasis,
    derive_params,
    povm_from_json,
    povm_to_json,
    projective_from_bloch,
    validate_povm,
)

I2 = np.eye(2, dtype=complex)


def test_projective_x_is_valid(sigma_x):
    assert len(sigma_x.outcomes) == 2
    assert sigma_x.outcomes == (1.0, -1.0)
    np.testing.assert_allclose(sum(sigma_x.effects), I2, atol=1e-15)


def test_rejects_non_hermitian():
    bad = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.1j, 0.5]])
    with pytest.raises(NotHermitianError):
        validate_povm([1.0, -1.0], [bad, I2 - bad])


def test_rejects_negative_effect():
    bad = np.array([[1.5, 0.0], [0.0, -0.5]])
    with pytest.raises(NotPositiveError):
        validate_povm([1.0, -1.0], [bad, I2 - bad])


def test_rejects_incomplete():
    half = 0.25 * I2
    with pytest.raises(NotCompleteError):
        validate_povm([1.0, -1.0], [half, half])


def test_rejects_duplicate_outcomes():
    with pytest.raises(DuplicateOutcomeError):
        validate_povm([1.0, 1.0], [0.5 * I2, 0.5 * I2])


def test_three_outcome_trine_valid():
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    effects = [
        (I2 + math.cos(t) * PAULI_X + math.sin(t) * PAULI_Z) / 3.0 for t in angles
    ]
    povm = validate_povm([0.0, 1.0, 2.0], effects)
    assert len(povm.outcomes) == 3


def test_derive_params_projective_x_half_mode(sigma_x):
    p = derive_params(sigma_x, mode="half")
    assert p.mu == pytest.approx(0.0, abs=1e-15)
    assert p.tau == pytest.approx(1.0, abs=1e-15)
    # the off-diagonal element is +tau, so arg(-A01) = pi
    assert p.phi == pytest.approx(math.pi, abs=1e-15)
    assert p.sigma2 == pytest.approx(1.0, abs=1e-15)
    assert p.s2 == 0.0


def test_derive_params_projective_x_one_mode(sigma_x):
    p = derive_params(sigma_x, mode="one")
    assert p.mu == pytest.approx(0.0, abs=1e-15)
    assert p.phi == pytest.approx(0.0, abs=1e-15)


def test_derive_params_degenerate_offdiagonal(sigma_z):
    with pytest.raises(DegenerateOffDiagonalError):
        derive_params(sigma_z)
    p = derive_params(sigma_z, mu=0.0, tau=1.0)
    assert p.mu == 0.0 and p.tau == 1.0 and p.phi == 0.0


def test_derive_params_rejects_bad_mode(sigma_x):
    with pytest.raises(ValidationError):
        derive_params(sigma_x, mode="quarter")


def test_derive_params_rejects_nonpositive_tau(sigma_x):
    with pytest.raises(ValidationError):
        derive_params(sigma_x, tau=0.0)


@pytest.mark.parametrize("override", [{"mu": math.nan}, {"mu": math.inf}, {"mu": -math.inf},
                                      {"tau": math.nan}, {"tau": math.inf}])
def test_derive_params_rejects_non_finite_overrides(sigma_x, override):
    with pytest.raises(ValidationError):
        derive_params(sigma_x, **override)


@pytest.mark.parametrize("mode", ["half", "one"])
def test_derive_params_keeps_the_completeness_defect_out_of_a_shift(mode):
    # The effects sum to (1 + 9e-13) I, which validation admits.  Summing the
    # raw a E put v times that defect, 9e-7 at v = 1e6, into mu and tau; the
    # moments of a - a_min leave mu the rounding of a_min + <0|A - a_min|0>.
    plus = 0.5 * (I2 + 0.6 * PAULI_X)
    effects = [plus, I2 - plus + 9e-13 * I2]
    shift = 1e6
    p = derive_params(validate_povm([1.0, -1.0], effects), mode)
    q = derive_params(validate_povm([shift + 1.0, shift - 1.0], effects), mode)
    assert abs((q.mu - shift) - p.mu) <= np.spacing(shift)
    assert (q.tau, q.sigma2, q.phi) == (p.tau, p.sigma2, p.phi)


def test_smeared_povm_has_positive_excess_width():
    # mix the projective x effects toward the identity: widens the kernel
    lam = 0.3
    plus = (1.0 - lam) * 0.5 * (I2 + PAULI_X) + lam * 0.5 * I2
    minus = I2 - plus
    povm = validate_povm([1.0, -1.0], [plus, minus])
    p = derive_params(povm)
    assert p.tau == pytest.approx(1.0 - lam)
    assert p.s2 == pytest.approx(1.0 / (1.0 - lam) ** 2 - 1.0, rel=1e-12)


def test_json_round_trip(sigma_x):
    data = povm_to_json(sigma_x)
    text = json.dumps(data)
    back = povm_from_json(text)
    assert back.outcomes == sigma_x.outcomes
    for a, b in zip(back.effects, sigma_x.effects):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_json_rejects_unknown_keys(sigma_x):
    data = povm_to_json(sigma_x)
    data["extra"] = 1
    with pytest.raises(ValidationError):
        povm_from_json(data)


def test_common_eigenbasis_diagonalizes_commuting_effects():
    # An unsharp two-outcome POVM along a tilted axis, and three-outcome
    # POVMs whose Bloch vectors are parallel: all rebuild from the columns.
    # The last two list (P/2, Q, P/2) and (P/2, P/2, Q), whose first sums
    # by index to P + Q = I.
    axis = math.sin(1.1) * PAULI_X + math.cos(1.1) * PAULI_Z
    unsharp = 0.5 * (I2 + 0.7 * axis)
    plus = 0.5 * (I2 + PAULI_X)
    povms = [
        validate_povm([1.0, -1.0], [unsharp, I2 - unsharp]),
        validate_povm([0.0, 1.0, -1.0],
                      [0.3 * I2, 0.35 * (I2 + axis), 0.35 * (I2 - axis)]),
        validate_povm([0.0, 1.0, 3.0], [0.5 * plus, I2 - plus, 0.5 * plus]),
        validate_povm([0.0, 3.0, 1.0], [0.5 * plus, 0.5 * plus, I2 - plus]),
    ]
    for povm in povms:
        basis, column_probs = common_eigenbasis(povm)
        np.testing.assert_allclose(basis.conj().T @ basis, I2, atol=1e-14)
        np.testing.assert_allclose(column_probs.sum(axis=0), 1.0, atol=1e-15)
        for effect, probs in zip(povm.effects, column_probs):
            np.testing.assert_allclose(basis @ np.diag(probs) @ basis.conj().T,
                                       effect, atol=1e-14)


def test_bloch_directions_give_projectors():
    for theta, phi in [(0.1, 0.4), (math.pi / 3, -1.0), (2.5, 2.0)]:
        povm = projective_from_bloch(theta, phi)
        for effect in povm.effects:
            # projector: E^2 = E
            np.testing.assert_allclose(effect @ effect, effect, atol=1e-14)


@st.composite
def binary_povms(draw):
    """A random valid two-outcome POVM with a non-degenerate off-diagonal."""
    p1 = draw(st.floats(0.05, 0.95))
    p2 = draw(st.floats(0.05, 0.95))
    angle = draw(st.floats(0.2, math.pi - 0.2))
    azimuth = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    vec = np.array([c, s * np.exp(1j * azimuth)])
    basis = np.column_stack([vec, np.array([-np.conj(vec[1]), np.conj(vec[0])])])
    effect = basis @ np.diag([p1, p2]) @ basis.conj().T
    a0 = draw(st.floats(-3.0, 3.0))
    gap = draw(st.floats(0.5, 3.0))
    return validate_povm([a0, a0 + gap], [effect, I2 - effect])


@given(binary_povms())
@settings(max_examples=40, deadline=None)
def test_derived_scales_are_consistent(povm):
    try:
        p = derive_params(povm)
    except DegenerateOffDiagonalError:
        return
    assert p.tau > 0.0
    assert p.sigma2 >= -1e-12
    assert p.s2 >= 0.0
    # sigma2 = tau^2 (1 + s2) by definition of the excess width
    assert p.sigma2 == pytest.approx(p.tau**2 * (1.0 + p.s2), rel=1e-9, abs=1e-12)
