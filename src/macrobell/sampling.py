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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError, check_alpha
from .finite_n import DickeSuperposition, moments_finite, pmf_finite, rotated_weights
from .povm import DerivedParams, SingleParticlePovm, common_eigenbasis, derive_params

#: Particle-count cap for a single sampling call.
MAX_SAMPLER_PARTICLES = 10**6

#: Level-count (Schmidt dimension) cap.
MAX_SAMPLER_LEVELS = 16

#: An X-variance below this is reported as exactly degenerate (beta = -inf).
_DEGENERATE_VARIANCE = 1e-9


@dataclass(frozen=True)
class SampleBatch:
    """Realizations of the rescaled collective variable, with provenance."""

    values: np.ndarray
    n_particles: int
    seed: int
    n_samples: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.n_samples:
            raise ValidationError("values must be a 1-d array of length n_samples")
        v = v.copy()
        v.flags.writeable = False
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
    other POVM samples from ``pmf_finite`` and raises where it raises.
    """
    alpha = check_alpha(alpha)
    n = state.n_particles
    d = state.coeffs.size
    if n > MAX_SAMPLER_PARTICLES:
        raise CapExceededError(f"N = {n} exceeds the sampler cap {MAX_SAMPLER_PARTICLES}")
    if d > MAX_SAMPLER_LEVELS:
        raise CapExceededError(f"{d} levels exceed the sampler cap {MAX_SAMPLER_LEVELS}")
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValidationError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2**64):
        raise ValidationError("seed must be an integer in [0, 2**64)")
    seed = int(seed)

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
        outcomes = np.asarray(povm.outcomes, dtype=float)
        intensity = (ground.multinomial(n - m, column_probs[:, 0]) @ outcomes
                     + excited.multinomial(m, column_probs[:, 1]) @ outcomes)
        x = (intensity - n * params.mu) / (params.tau * n**alpha)
    return SampleBatch(values=x, n_particles=n, seed=seed, n_samples=n_samples)


def ks_distance(batch: SampleBatch, cdf_evaluator) -> float:
    """Sup-norm distance between the batch's empirical CDF and a model CDF.

    ``cdf_evaluator`` is called on the sorted sample array; a scalar-only
    callable is applied elementwise.
    """
    if batch.n_samples < 1:
        raise ValidationError("batch is empty")
    xs = np.sort(batch.values)
    try:
        model = np.asarray(cdf_evaluator(xs), dtype=float)
        if model.shape != xs.shape:
            raise TypeError("shape mismatch")
    except (TypeError, ValueError):
        model = np.array([float(cdf_evaluator(x)) for x in xs])
    n = xs.size
    steps = np.arange(n, dtype=float)
    upper = np.max((steps + 1.0) / n - model)
    lower = np.max(model - steps / n)
    return float(max(upper, lower))


def scaling_exponent(state_family, povm: SingleParticlePovm, n_list,
                     mode: str = "half", mu=None, tau=None) -> float:
    """Exponent beta with Var(intensity) ~ N^(2 beta), from exact variances.

    ``state_family`` maps a particle count to the state measured at that
    size.  The variance of the unscaled intensity is reconstructed from the
    exact X-variance; a degenerate (zero-variance) family returns -inf.
    ``mu``/``tau`` pass through to the parameter derivation for measurements
    whose off-diagonal scale is degenerate.
    """
    n_values = list(n_list)
    if len(n_values) < 4:
        raise ValidationError("need at least 4 particle counts to fit a slope")
    if (not all(isinstance(v, numbers.Integral) and v >= 1 for v in n_values)
            or len(set(n_values)) != len(n_values)):
        raise ValidationError(f"particle counts must be distinct positive integers, "
                              f"got {n_values!r}")
    params = derive_params(povm, mode=mode, mu=mu, tau=tau)
    log_n, log_var = [], []
    for n in n_values:
        moments = moments_finite(state_family(n), povm, params, 0.5, order=2)
        var_x = moments.central[2]
        if var_x < _DEGENERATE_VARIANCE:
            return float("-inf")
        log_n.append(math.log(n))
        log_var.append(math.log(var_x * params.tau**2 * n))
    slope = np.polyfit(log_n, log_var, 1)[0]
    return float(0.5 * slope)
