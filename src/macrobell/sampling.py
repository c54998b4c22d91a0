"""Exact sampling of collective measurement records in the measurement eigenbasis.

When the effects of the single-particle POVM commute (every two-outcome
POVM, every preset, the three-outcome loss rewrite), one basis
``u_0, u_1`` diagonalizes all of them, and measuring N particles is the
Born rule on the Dicke states ``|N,m>_U`` (m particles in ``u_1``)
followed by independent per-particle outcome noise:

    P(m) = |<N,m|_U psi>|^2,   outcome a of a particle in u_b
                               with probability <u_b|E_a|u_b>.

So a record is one occupation draw by inverse CDF on the rotated weights
(``finite_n.rotated_weights``, O(N * levels) once per call) and the outcome
counts of the N - m and the m particles by two multinomial draws.  A POVM
without a common eigenbasis (three or more outcomes with non-parallel
Bloch vectors, such as a trine) draws by inverse CDF from ``pmf_finite``,
so it samples exactly where the exact distribution is available.

Randomness comes from one counter-based Philox stream per role
(occupation, counts in ``u_0``, counts in ``u_1``), consumed in record
order: record i is a fixed function of (seed, i), whatever the batch size
or the thread count of the host process.

Also here: the empirical Kolmogorov-Smirnov distance and the
variance-scaling exponent that identifies the right coarse-graining power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapExceededError, ValidationError, check_alpha, check_integer,
                     check_real_array)
from .finite_n import (DEFAULT_LATTICE_CAP, DickeSuperposition, moments_finite, pmf_finite,
                       rotated_weights)
from .povm import DerivedParams, SingleParticlePovm, common_eigenbasis, derive_params

#: A variance Var(I) / N below this is reported as exactly degenerate (beta = -inf).
_DEGENERATE_VARIANCE = 1e-9


@dataclass(frozen=True)
class SampleBatch:
    """Realizations of the rescaled collective variable, with provenance:
    ``n_samples`` finite values in a read-only 1-d array."""

    values: np.ndarray
    n_particles: int
    seed: int
    n_samples: int

    def __post_init__(self):
        v = check_real_array(self.values, "values", ndim=1)
        if v.size != self.n_samples:
            raise ValidationError(f"values has {v.size} entries, not n_samples = {self.n_samples}")
        object.__setattr__(self, "values", v)


def _inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index drawn for each uniform; zero-probability entries are never drawn."""
    cumulative = np.cumsum(probs)
    return np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")


def sample_outcomes(state: DickeSuperposition, povm: SingleParticlePovm,
                    params: DerivedParams, alpha, n_samples: int,
                    seed: int) -> SampleBatch:
    """Draw i.i.d. records of the rescaled intensity X, exactly.

    Parameters
    ----------
    state, povm, params, alpha : as in the exact-distribution routines.
    n_samples : number of independent records.
    seed : key of the counter-based generator; record i depends only on
        (seed, i).

    Notes
    -----
    A POVM with commuting effects costs O(N * levels) for the rotated
    weights plus O(n_samples * outcomes) draws, at every base level.  Any
    other POVM samples from ``pmf_finite`` and raises where it raises.  N
    above ``finite_n.DEFAULT_LATTICE_CAP`` (2^22), the lattice cap of
    ``pmf_finite``, raises ``CapExceededError``.
    """
    alpha = check_alpha(alpha)
    n = state.n_particles
    if n > DEFAULT_LATTICE_CAP:
        raise CapExceededError(f"N = {n} exceeds the lattice cap {DEFAULT_LATTICE_CAP}")
    n_samples = check_integer(n_samples, "n_samples", 1)
    seed = check_integer(seed, "seed", 0, 2**64 - 1)

    occupation, ground, excited = (
        np.random.Generator(np.random.Philox(key=seed, counter=role << 128))
        for role in range(3))
    uniforms = occupation.random(n_samples)
    common = common_eigenbasis(povm)
    if common is None:
        pmf = pmf_finite(state, povm, params, alpha)
        x = pmf.values[_inverse_cdf(pmf.probs, uniforms)]
    else:
        basis, column_probs = common
        m = _inverse_cdf(rotated_weights(state, basis), uniforms)
        # as in pmf_finite, a shift of the outcomes cancels in a - a_min and a_min - mu
        outcomes = np.asarray(povm.outcomes, dtype=float)
        a_min = float(outcomes.min())
        counts = (ground.multinomial(n - m, column_probs[:, 0])
                  + excited.multinomial(m, column_probs[:, 1]))
        x = (counts @ (outcomes - a_min) + n * (a_min - params.mu)) / (params.tau * n**alpha)
    return SampleBatch(values=x, n_particles=n, seed=seed, n_samples=n_samples)


def ks_distance(batch: SampleBatch, cdf_evaluator) -> float:
    """Sup-norm distance between the batch's empirical CDF and a model CDF.

    ``cdf_evaluator`` is called once, on the sorted sample array, and its
    result is broadcast to that array's shape.
    """
    xs = np.sort(batch.values)
    model = np.broadcast_to(np.asarray(cdf_evaluator(xs), dtype=float), xs.shape)
    n = xs.size
    steps = np.arange(n, dtype=float)
    upper = np.max((steps + 1.0) / n - model)
    lower = np.max(model - steps / n)
    return float(max(upper, lower))


def scaling_exponent(state_family, povm: SingleParticlePovm, n_list) -> float:
    """Exponent beta with Var(intensity) ~ N^(2 beta), from exact variances.

    ``state_family`` maps a particle count to the state measured at that
    size.  The variance of the unscaled intensity I is the exact X-variance
    at unit scale (mu = 0, tau = 1, so X = I / sqrt(N)) times N; the
    exponent does not depend on the centring, scale or phase of the
    measurement's parameters, and a measurement without an off-diagonal
    scale (``sz``) needs none.  A degenerate family, Var(I) / N below 1e-9,
    returns -inf.
    """
    n_values = [check_integer(v, "particle count", 1) for v in n_list]
    if len(n_values) < 4 or len(set(n_values)) != len(n_values):
        raise ValidationError(f"need at least 4 distinct particle counts to fit a slope, "
                              f"got {n_values!r}")
    params = derive_params(povm, mu=0.0, tau=1.0)
    log_n, log_var = [], []
    for n in n_values:
        var_over_n = moments_finite(state_family(n), povm, params, 0.5, order=2).central[2]
        if var_over_n < _DEGENERATE_VARIANCE:
            return float("-inf")
        log_n.append(math.log(n))
        log_var.append(math.log(var_over_n * n))
    slope = np.polyfit(log_n, log_var, 1)[0]
    return float(0.5 * slope)
