"""Exact finite-size statistics of collective coarse-grained measurements.

A product measurement ``{E_a}^(x)N`` applied to a superposition of
symmetric (Dicke) states produces an intensity ``I = sum_i a_i`` whose
rescaled version ``X = (I - N mu) / (tau N^alpha)`` is the object of
interest.  Everything here is exact at finite N:

* the full probability mass function of X on its outcome lattice.  A
  projective POVM (every effect a 0/1 projector in one basis, which
  covers every spin component) takes the rotation route: the state's
  weights in the rotated Dicke basis, by inverse iteration at the known
  eigenvalues of one tridiagonal matrix, O(N * levels) for every level
  up to N; this route works at N = 10^5 and beyond.  Any other POVM takes the
  inversion route: the lattice characteristic function at the conjugate
  frequencies, from Dicke matrix elements ``<N,k| M^(x)N |N,l>`` with
  binomials in log space, inverted by a discrete Fourier transform at
  O(N * levels^2) cost.  Its Dicke sums cancel for mid-ladder levels,
  where its guards raise from N of about 100,
* the characteristic function of X, as the Fourier sum of that PMF,
* moments, and
* an independent brute-force path (explicit 2^N state vectors) used as
  an oracle for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dstein

from .errors import (
    CapExceededError,
    NegativeDensityError,
    NumericError,
    OffLatticeError,
    ValidationError,
    check_alpha,
    check_unit_vector,
)
from .povm import projective_basis

__all__ = [
    "DickeSuperposition",
    "LatticePmf",
    "Moments",
    "char_fn_finite",
    "pmf_finite",
    "rotated_weights",
    "moments_finite",
    "brute_force_pmf",
    "brute_force_char_fn",
    "total_variation",
    "DEFAULT_LATTICE_CAP",
    "BRUTE_FORCE_MAX_N",
]

#: bound on N * (lattice steps per particle), i.e. on the lattice (and FFT) size
DEFAULT_LATTICE_CAP = 1 << 22

#: hard bound for the exponential-cost oracle
BRUTE_FORCE_MAX_N = 14


@dataclass(frozen=True)
class DickeSuperposition:
    """Superposition ``sum_j coeffs[j] |N, base_level + j>`` of Dicke levels.

    ``base_level = 0`` is the natural choice for square-root coarse
    graining; linear coarse graining uses states centered on the
    half-filled ladder (even N with ``base_level = N // 2``).

    Every level count and base level is valid; for projective POVMs
    ``pmf_finite`` handles them all at N = 10^5 and beyond.  For other POVMs
    it can raise for mid-ladder levels from N of about 100 (see the module
    docstring).
    """

    n_particles: int
    coeffs: np.ndarray
    base_level: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValidationError("need at least one particle")
        c = check_unit_vector(self.coeffs)
        if self.base_level < 0:
            raise ValidationError("base_level must be nonnegative")
        if self.base_level + c.size - 1 > self.n_particles:
            raise ValidationError(
                f"highest level {self.base_level + c.size - 1} exceeds "
                f"N = {self.n_particles}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def levels(self) -> np.ndarray:
        return self.base_level + np.arange(self.coeffs.size)

    @classmethod
    def from_coeffs(cls, n_particles, coeffs, base_level=0) -> "DickeSuperposition":
        c = np.asarray(coeffs, dtype=complex)
        norm = np.linalg.norm(c)
        if norm == 0:
            raise ValidationError("coefficients are all zero")
        return cls(n_particles, c / norm, base_level)

    @classmethod
    def dicke(cls, n_particles, k) -> "DickeSuperposition":
        """The single Dicke state |N, k>."""
        return cls(n_particles, np.array([1.0 + 0.0j]), base_level=int(k))

    @classmethod
    def w_state(cls, n_particles) -> "DickeSuperposition":
        """Single shared excitation, |N, 1>."""
        return cls.dicke(n_particles, 1)


@dataclass(frozen=True)
class LatticePmf:
    """PMF of X on the strictly increasing lattice ``values``."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValidationError("values and probs must be matching 1-d arrays")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ValidationError("values must be strictly increasing")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot(self.probs, (self.values - m) ** 2))

    def cdf(self, x) -> np.ndarray:
        """Right-continuous step CDF evaluated at x."""
        cumulative = np.cumsum(self.probs)
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate([[0.0], cumulative])
        return padded[idx]


@dataclass(frozen=True)
class Moments:
    """Raw and central moments, index = order (element 0 is the total mass)."""

    raw: np.ndarray
    central: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.raw[1])

    @property
    def variance(self) -> float:
        return float(self.central[2])


def _log_binom(n, k):
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _pow_log(base: np.ndarray, power: int) -> np.ndarray:
    """power * log(base) elementwise, with 0^0 = 1 handled (-> 0 contribution)."""
    if power == 0:
        return np.zeros(base.shape, dtype=complex)
    zero = base == 0
    if not np.any(zero):
        return power * np.log(base)
    safe = np.where(zero, 1.0, base)
    out = power * np.log(safe)
    out = np.where(zero, -np.inf + 0.0j, out)
    return out


def _dicke_elements_vec(m00, m01, m10, m11, n_particles, k, l):
    """<N,k| M^(x)N |N,l> for matrix entries given as equal-shape arrays.

    Implements the combinatorial sum over how many of the l (k) raised
    sites of the ket (bra) coincide, with binomials in log space.
    """
    n = int(n_particles)
    k = int(k)
    l = int(l)
    if not (0 <= k <= n and 0 <= l <= n):
        raise ValidationError(f"need 0 <= k,l <= N, got k={k}, l={l}, N={n}")
    m00 = np.asarray(m00, dtype=complex)
    hi, lo = (k, l) if k >= l else (l, k)
    # bra has `hi` raised sites when k >= l; otherwise swap roles, which
    # exchanges the two off-diagonal entries
    up, down = (m10, m01) if k >= l else (m01, m10)
    up = np.asarray(up, dtype=complex)
    down = np.asarray(down, dtype=complex)
    m11 = np.asarray(m11, dtype=complex)

    prefactor = 0.5 * (_log_binom(n, hi) - _log_binom(n, lo))
    q_min = max(0, hi + lo - n)
    total = np.zeros(m00.shape, dtype=complex)
    for q in range(q_min, lo + 1):
        log_weight = (
            prefactor
            + _log_binom(hi, q)
            + _log_binom(n - hi, lo - q)
        )
        exponent = (
            log_weight
            + _pow_log(m11, q)
            + _pow_log(up, hi - q)
            + _pow_log(down, lo - q)
            + _pow_log(m00, n - hi - lo + q)
        )
        total = total + np.exp(exponent)
    return total


def _superposition_expectation(state, m00, m01, m10, m11):
    """sum_{k,l} conj(c_k) c_l <N,k|M^(x)N|N,l> with entries as node arrays."""
    c = state.coeffs
    levels = state.levels
    total = np.zeros(np.asarray(m00).shape, dtype=complex)
    for i, k in enumerate(levels):
        if c[i] == 0:
            continue
        for j, l in enumerate(levels):
            if c[j] == 0:
                continue
            weight = np.conj(c[i]) * c[j]
            total = total + weight * _dicke_elements_vec(
                m00, m01, m10, m11, state.n_particles, k, l
            )
    return total


def _lattice_structure(outcomes, atol_rel=1e-9):
    """Base point, step, and integer index of each outcome on its lattice."""
    a = np.asarray(outcomes, dtype=float)
    a_min = float(a.min())
    diffs = np.sort(a - a_min)
    scale = float(np.max(np.abs(a))) or 1.0
    tol = atol_rel * max(scale, 1.0)

    step = 0.0
    for d in diffs:
        if d <= tol:
            continue
        g, b = (step, float(d)) if step else (float(d), 0.0)
        while b > tol:
            g, b = b, math.fmod(g, b)
        step = g
    if step <= tol:
        raise OffLatticeError("could not find a positive lattice step")
    idx = np.round((a - a_min) / step)
    if np.max(np.abs((a - a_min) - idx * step)) > tol:
        raise OffLatticeError(
            f"outcomes deviate from the lattice with step {step!r}"
        )
    return a_min, step, idx.astype(np.int64)


_JZ = np.diag([-0.5, 0.5]).astype(complex)
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def rotated_weights(state, basis) -> np.ndarray:
    """Weights ``|<N,m|_U psi>|^2``, m = 0..N, in the Dicke basis built on U.

    ``|N,m>_U`` holds m particles in ``U|1>``.  Its overlap with
    ``|N,k>`` is component m of ``D(U^dag)|N,k>``, an eigenvector of the
    collective operator of ``h = U^dag J_z U`` with eigenvalue k - N/2.
    Rephasing ``|N,m>`` by ``exp(i m arg h_10)`` makes that operator real
    symmetric tridiagonal; the common phase of row m drops out of the
    weights.  LAPACK ``dstein`` finds the vectors by inverse iteration at
    those known eigenvalues, O(N * levels), up to a sign each, so
    consecutive vectors are rephased until the rotated raising operator
    maps one onto the next with the positive factor sqrt((k+1)(N-k)), as
    J_+ does on the Dicke ladder.  Raises NumericError when inverse
    iteration fails or the weights miss unit mass by more than 1e-10.
    """
    n = state.n_particles
    h = basis.conj().T @ _JZ @ basis
    r = basis.conj().T @ _RAISE @ basis
    m = np.arange(n + 1, dtype=float)
    ladder = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    h10 = complex(h[1, 0])
    rephase = h10 / abs(h10) if h10 != 0 else 1.0
    # one unsplit block: every eigenvalue in block 1, which ends at row N + 1
    vectors, info = dstein(
        (n - m) * h[0, 0].real + m * h[1, 1].real, abs(h10) * ladder,
        state.levels - 0.5 * n, np.ones(n + 1, np.int32), np.full(n + 1, n + 1, np.int32))
    if info > 0:
        raise NumericError(f"inverse iteration missed {info} rotated vector(s)")
    raise_diag = (n - m) * r[0, 0] + m * r[1, 1]
    raise_upper = rephase * r[0, 1] * ladder
    raise_lower = np.conj(rephase) * r[1, 0] * ladder

    amplitude = state.coeffs[0] * vectors[:, 0]
    phase = 1.0 + 0.0j
    for k in range(1, state.coeffs.size):
        below = vectors[:, k - 1]
        raised = raise_diag * below
        raised[:-1] += raise_upper * below[1:]
        raised[1:] += raise_lower * below[:-1]
        overlap = complex(np.dot(vectors[:, k], raised))
        phase *= overlap / abs(overlap)
        amplitude += state.coeffs[k] * phase * vectors[:, k]
    weights = np.abs(amplitude) ** 2
    mass_defect = abs(float(weights.sum()) - 1.0)
    if not mass_defect <= 1e-10:
        raise NumericError(f"rotated weights miss unit mass by {mass_defect:.3e}")
    return weights


def _inverted_probs(state, povm, idx, size) -> np.ndarray:
    """Lattice probabilities by DFT inversion of the characteristic function."""
    theta = 2.0 * np.pi * np.arange(size) / size
    m = np.tensordot(np.exp(1j * np.outer(theta, idx)), np.stack(povm.effects), axes=1)
    char_values = _superposition_expectation(state, m[:, 0, 0], m[:, 0, 1],
                                             m[:, 1, 0], m[:, 1, 1])

    probs = np.fft.fft(char_values) / size
    imag_residue = float(np.max(np.abs(probs.imag)))
    if not imag_residue <= 1e-10:
        raise NumericError(
            f"inversion left imaginary residue {imag_residue:.3e}"
        )
    p = probs.real
    worst = float(p.min())
    if not worst >= -1e-12:
        raise NegativeDensityError(
            f"inversion produced probability {worst:.3e} < -1e-12"
        )
    return np.clip(p, 0.0, None)


def pmf_finite(state, povm, params, alpha):
    """Exact PMF of X on the outcome lattice.

    The intensity of N particles with outcomes on ``a_min + j*step``
    lives on ``N*a_min + m*step`` with ``m`` in 0..N*J.  Two routes fill
    that lattice:

    * projective POVMs (see ``povm.projective_basis``): with m particles
      in the second basis state the intensity index is
      ``(N-m)*j_0 + m*j_1``, and its probability is the state's weight
      on the rotated Dicke state ``|N,m>_U``.  The weights are
      nonnegative, so nothing cancels; cost O(N * levels).
    * every other POVM: the lattice characteristic function at the
      L = N*J+1 conjugate frequencies, inverted by a DFT; cost
      O(N * levels^2) Dicke sums that cancel for mid-ladder levels.

    Raises
    ------
    OffLatticeError
        If the outcomes are not commensurate.
    CapExceededError
        If ``N * J`` exceeds ``DEFAULT_LATTICE_CAP`` (2^22).
    NumericError
        If inverse iteration does not converge, the rotated weights miss
        unit mass by more than 1e-10, or inversion leaves an imaginary
        residue above 1e-10.
    NegativeDensityError
        If inversion produces negativity beyond roundoff (1e-12).
    """
    a = check_alpha(alpha)
    n = state.n_particles
    a_min, step, idx = _lattice_structure(povm.outcomes)
    j_max = int(idx.max())
    size = n * j_max + 1
    if size - 1 > DEFAULT_LATTICE_CAP:
        raise CapExceededError(
            f"lattice size N*J = {size - 1} exceeds cap {DEFAULT_LATTICE_CAP}"
        )

    projective = projective_basis(povm)
    if projective is None:
        p = _inverted_probs(state, povm, idx, size)
    else:
        basis, column_outcome = projective
        weights = rotated_weights(state, basis)
        j0, j1 = idx[column_outcome]
        excited = np.arange(n + 1)
        p = np.bincount((n - excited) * j0 + excited * j1,
                        weights=weights, minlength=size)
    p = p / p.sum()

    scale = params.tau * float(n) ** a
    m = np.arange(size, dtype=float)
    values = (n * a_min + m * step - n * params.mu) / scale
    return LatticePmf(values=values, probs=p)


def char_fn_finite(state, povm, params, alpha, t):
    """Characteristic function E[exp(i t X)]: the Fourier sum of ``pmf_finite``.

    ``state``, ``povm``, ``params`` (centering ``mu``, scale ``tau``) and
    ``alpha`` (0.5 or 1.0) are those of ``pmf_finite``; ``t`` is a float
    or an array, and the result is complex with the shape of ``t``,
    exactly 1 at ``t = 0``.  With lattice index ``m = b*B + j``,
    ``B ~ sqrt(L)`` for L lattice points, ``exp(i t x_m)`` factors into
    ``exp(i t x_bB) * exp(i t (x_j - x_0))``, so the sum over m is one
    (T x B) @ (B x L/B) product and a row-wise dot: O(T sqrt(L))
    exponentials and memory for T values of t.

    Raises whatever ``pmf_finite`` raises: ``OffLatticeError`` or
    ``CapExceededError`` for incommensurate outcomes, and the inversion
    route's ``NumericError`` or ``NegativeDensityError`` for
    non-projective POVMs on mid-ladder states.
    """
    pmf = pmf_finite(state, povm, params, alpha)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    block = math.isqrt(pmf.probs.size - 1) + 1
    probs = np.pad(pmf.probs, (0, -pmf.probs.size % block)).reshape(-1, block)
    inner = np.exp(1j * np.outer(t_arr, pmf.values[:block] - pmf.values[0])) @ probs.T
    values = np.sum(np.exp(1j * np.outer(t_arr, pmf.values[::block])) * inner, axis=1)
    values = np.where(t_arr == 0.0, 1.0 + 0.0j, values)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(values[0])
    return values


def moments_finite(state, povm, params, alpha, order=4) -> Moments:
    """Raw and central moments of X up to ``order`` from the exact PMF."""
    if not isinstance(order, (int, np.integer)):
        raise ValidationError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= 8:
        raise ValidationError("order must be between 1 and 8")
    pmf = pmf_finite(state, povm, params, alpha)
    raw = np.array([np.dot(pmf.probs, pmf.values**j) for j in range(order + 1)])
    mean = raw[1]
    central = np.array(
        [np.dot(pmf.probs, (pmf.values - mean) ** j) for j in range(order + 1)]
    )
    return Moments(raw=raw, central=central)


# --------------------------------------------------------------------------
# Brute-force oracle: explicit 2^N vectors, no shared code with the
# closed-form path above.
# --------------------------------------------------------------------------

def _full_state_vector(state: DickeSuperposition) -> np.ndarray:
    n = state.n_particles
    dim = 1 << n
    popcount = np.zeros(dim, dtype=np.int64)
    for bit in range(n):
        popcount += (np.arange(dim) >> bit) & 1
    psi = np.zeros(dim, dtype=complex)
    for coeff, level in zip(state.coeffs, state.levels):
        mask = popcount == level
        count = int(mask.sum())
        psi[mask] += coeff / math.sqrt(count)
    return psi


def brute_force_pmf(state, povm, params, alpha) -> LatticePmf:
    """PMF of X by explicit 2^N state vectors (N <= 14).

    Keeps one vector per partial intensity I over the first q particles,
    the sum of ``E_a1 (x) ... (x) E_aq`` over outcome strings with total I
    applied to psi, and ends with ``P(I) = <psi|v_I>``: O(N * L * 2^N) for
    L intensity values.
    """
    a = check_alpha(alpha)
    n = state.n_particles
    if n > BRUTE_FORCE_MAX_N:
        raise CapExceededError(
            f"brute force supports N <= {BRUTE_FORCE_MAX_N}, got {n}"
        )
    psi = _full_state_vector(state)
    partial = {0.0: psi}
    for qubit in range(n):
        advanced: dict[float, np.ndarray] = {}
        for intensity, vec in partial.items():
            for outcome, effect in zip(povm.outcomes, povm.effects):
                key = round(intensity + outcome, 10)
                branch = np.einsum("ab,ibj->iaj", effect,
                                   vec.reshape(1 << qubit, 2, -1)).reshape(-1)
                advanced[key] = advanced[key] + branch if key in advanced else branch
        partial = advanced
    intensities = np.array(sorted(partial))
    probs = np.array([np.vdot(psi, partial[key]).real for key in intensities])
    probs = probs / probs.sum()
    scale = params.tau * float(n) ** a
    values = (intensities - n * params.mu) / scale
    return LatticePmf(values=values, probs=probs)


def brute_force_char_fn(state, povm, params, alpha, t):
    """E[exp(i t X)] from the brute-force PMF (N <= 14)."""
    pmf = brute_force_pmf(state, povm, params, alpha)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    values = np.exp(1j * np.outer(t_arr, pmf.values)) @ pmf.probs
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(values[0])
    return values


def total_variation(pmf_a: LatticePmf, pmf_b: LatticePmf, match_atol=1e-9) -> float:
    """TV distance between two lattice PMFs, matching support points.

    Points of one support within ``match_atol`` of a point of the other
    are identified; unmatched points contribute their full mass.  Both
    supports are merged in sorted order, and consecutive merged points at
    most ``match_atol`` apart share a slot, so the cost is O(n log n).
    """
    values = np.concatenate([pmf_a.values, pmf_b.values])
    signed = np.concatenate([pmf_a.probs, -pmf_b.probs])
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    slot = np.cumsum(np.diff(ordered, prepend=ordered[:1]) > match_atol)
    return 0.5 * float(np.sum(np.abs(np.bincount(slot, weights=signed[order]))))
