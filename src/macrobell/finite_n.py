"""Exact finite-size statistics of collective coarse-grained measurements.

A product measurement ``{E_a}^(x)N`` applied to a superposition of
symmetric (Dicke) states produces an intensity ``I = sum_i a_i`` whose
rescaled version ``X = (I - N mu) / (tau N^alpha)`` is the object of
interest.  Everything here is exact at finite N:

* the full probability mass function of X on its outcome lattice.  A
  projective POVM (every effect a 0/1 projector in one basis, which
  covers every spin component) takes the rotation route: the state's
  weights in the rotated Dicke basis, from eigenvectors of one symmetric
  tridiagonal matrix at its known eigenvalues
  ``lambda_k = N (h_00 + h_11)/2 + rho (k - N/2)``, each signed
  positive in row 0 so that level k carries the closed-form phase
  ``exp(i k (arg U_00 - arg U_10))``.  Levels near the bottom of the
  ladder (up to about level 400, and below N/2) come from the three-term
  recurrence in the level index, a few numpy passes over the O(sqrt(N))
  rows where level 0 is a normal float per level.  Where that recurrence
  is unstable, mid-ladder in particular, each vector is a twisted
  factorization (two pivot sweeps, each a plain Python loop) on a window
  of the ladder: the rows where the vector oscillates, widened until it
  has decayed by 800 nats; the cost is O(window * levels) loop steps of
  about 0.1 us, and a mid-ladder window spans the whole ladder.  Only
  numpy is needed, and the route works for every level at N = 10^5 and
  beyond.  Any other POVM takes the
  inversion route: the lattice characteristic function at the conjugate
  frequencies, from Dicke matrix elements ``<N,k| M^(x)N |N,l>`` with
  binomials in log space, inverted by a discrete Fourier transform at
  O(N * levels^2) cost.  Its Dicke sums cancel for mid-ladder levels,
  where its guards raise from N of about 100,
* the characteristic function of X (``limits.lattice_char_fn`` of that PMF),
* moments, and
* an independent brute-force path (explicit 2^N state vectors) used as
  an oracle for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DEFAULT_LATTICE_CAP,
    CapExceededError,
    NegativeDensityError,
    NumericError,
    OffLatticeError,
    ValidationError,
    check_alpha,
    check_grid,
    check_integer,
    check_real_array,
    check_unit_vector,
)
from .povm import common_eigenbasis

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

#: hard bound for the exponential-cost oracle
BRUTE_FORCE_MAX_N = 14

#: a POVM is projective when every outcome probability in its common
#: eigenbasis is within this of 0 or 1
_SHARP_ATOL = 1e-12


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
        check_integer(self.n_particles, "n_particles", 1)
        check_integer(self.base_level, "base_level", 0)
        c = check_unit_vector(self.coeffs)
        if self.base_level + c.size - 1 > self.n_particles:
            raise ValidationError(
                f"highest level {self.base_level + c.size - 1} exceeds "
                f"N = {self.n_particles}"
            )
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
        return cls(n_particles, np.array([1.0 + 0.0j]), base_level=k)

    @classmethod
    def w_state(cls, n_particles) -> "DickeSuperposition":
        """Single shared excitation, |N, 1>."""
        return cls.dicke(n_particles, 1)


@dataclass(frozen=True)
class LatticePmf:
    """PMF of X on the strictly increasing lattice ``values`` (one point or
    more), with finite ``probs``; both arrays are read-only."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = check_grid(self.values, "values", points=1)
        p = check_real_array(self.probs, "probs")
        if v.shape != p.shape:
            raise ValidationError("values and probs must be matching 1-d arrays")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def cdf(self, x) -> np.ndarray:
        """Right-continuous step CDF evaluated at x; NaN at a NaN x."""
        x = np.asarray(x, dtype=float)
        padded = np.concatenate([[0.0], np.cumsum(self.probs), [np.nan]])
        # searchsorted puts NaN past the last value; index -1 reads the pad
        return padded[np.where(np.isnan(x), -1, np.searchsorted(self.values, x, side="right"))]


@dataclass(frozen=True)
class Moments:
    """Raw and central moments, index = order (element 0 is the total mass)."""

    raw: np.ndarray
    central: np.ndarray


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


def _dicke_elements_vec(m00, m01, m10, m11, n, k, l):
    """<N,k| M^(x)N |N,l> for matrix entries given as equal-shape arrays.

    Implements the combinatorial sum over how many of the l (k) raised
    sites of the ket (bra) coincide, with binomials in log space.  The
    levels are those of a validated state, so 0 <= k, l <= N.
    """
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


def _lattice_structure(outcomes, rtol=1e-9):
    """Base point, step, and integer index of each outcome on its lattice.

    Outcomes match the lattice to ``rtol`` times their spread, or to a few
    ulps of the largest outcome where that is coarser, so the tolerance is
    invariant under an affine relabelling a -> u a + v while the outcomes
    stay distinct floats.
    """
    a = np.asarray(outcomes, dtype=float)
    a_min = float(a.min())
    diffs = np.sort(a - a_min)
    tol = max(rtol * float(diffs[-1]), 4.0 * float(np.spacing(np.max(np.abs(a)))))

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

#: decay, in nats, that the window of a ladder vector spans beyond its
#: allowed interval; entries further out are below exp(-800) and stored as 0
_WINDOW_DECAY = 800.0

#: a pivot below this fraction of its coupling puts the next row of the
#: vector near a node (see ``_toward_start``)
_NEAR_NODE = 1e-3


def _pivots(shift, coupling, pivmin) -> list:
    """Pivots ``D_0 = shift_0``, ``D_i = shift_i - coupling_{i-1} / D_{i-1}``.

    ``shift`` and ``coupling`` are iterables of Python floats, which the
    loop runs on; a pivot smaller than ``pivmin`` in modulus is stored as
    ``-pivmin``, so an exact zero cannot divide the next step by zero.
    """
    shift = iter(shift)
    d = next(shift)
    if -pivmin < d < pivmin:
        d = -pivmin
    pivots = [d]
    append = pivots.append
    for s, c in zip(shift, coupling):
        d = s - c / d
        if -pivmin < d < pivmin:
            d = -pivmin
        append(d)
    return pivots


def _toward_start(pivots, b, r) -> np.ndarray:
    """``x_i / x_r`` for rows i < r of the solution x that a pivot sweep
    builds, ``x_{i+1} / x_i = -D_i / b_i``: products of the ratios, summed
    as logs from r, with signs by parity.

    A pivot D_i far below b_i puts x_{i+1} near a node and makes D_{i+1}
    large.  Their two logs would cancel, to an error of 1e-13 when D_i is an
    exact zero stored as -pivmin, so the sum steps over row i+1 by the log
    of the product ``D_i D_{i+1}``, and x_{i+1} is one ratio from x_{i+2}.
    """
    steps = np.log(np.abs(pivots[:r]) / b[:r])
    near = np.flatnonzero(np.abs(pivots[:r]) < _NEAR_NODE * b[:r])
    near = near[(near + 1 < r) & (np.diff(near, prepend=-2) > 1)]
    chain = steps.copy()
    chain[near] = np.log(np.abs(pivots[near] * pivots[near + 1]) / (b[near] * b[near + 1]))
    chain[near + 1] = 0.0
    log_size = np.cumsum(-chain[::-1])[::-1]
    log_size[near + 1] -= steps[near + 1]
    part = np.exp(log_size)
    part[np.cumsum(pivots[:r][::-1] > 0)[::-1] % 2 == 1] *= -1.0
    return part


def _ladder_vectors(n, basis, levels):
    """Twisted-factorization route of ``_rotated_vectors``: the first row lo
    of a window of rows shared by every level, and one column per level of
    the eigenvectors on it, not yet orthonormal; every vector is zero
    outside the window (see ``rotated_weights``).  With no coupling each
    vector is the unit vector of the nearest diagonal entry.

    The vectors are eigenvectors of the symmetric tridiagonal matrix with
    diagonal ``a_m = (N-m) h_00 + m h_11`` and off-diagonal
    ``b_m = |h_10| sqrt((m+1)(N-m))`` at ``lambda_k``.  Each is signed so
    that its row-0 entry is positive: the Jacobi convention, in which entry
    m is the row-0 entry times an orthogonal polynomial of degree m in the
    eigenvalue with positive leading coefficient.  With every b positive
    that entry is never 0 in exact arithmetic, but when the window starts
    past row 0 it underflows to 0, so its sign comes from the pivots.  The
    vector is +1 at the twist row r and changes sign after each positive
    pivot on the way up, as ``x_i / x_{i+1} = -b_i / D_i``: the window's
    pivots above r count those changes up to its first row lo.  The lo rows
    above the window lie on one side of the allowed interval, where every
    pivot has the sign of ``a_0 - lambda``, so they add lo changes when that
    is positive.
    """
    h = basis.conj().T @ _JZ @ basis
    m = np.arange(n + 1, dtype=float)
    h00, h11, h10 = h[0, 0].real, h[1, 1].real, abs(h[1, 0])
    rho = math.sqrt((h11 - h00) ** 2 + 4.0 * h10 ** 2)
    diag = (n - m) * h00 + m * h11
    off = h10 * np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    eigenvalues = 0.5 * n * (h00 + h11) + rho * (levels - 0.5 * n)
    if not np.any(off):
        rows = np.array([np.argmin(np.abs(diag - lam)) for lam in eigenvalues])
        window = np.zeros((rows.max() + 1 - rows.min(), eigenvalues.size))
        window[rows - rows.min(), np.arange(eigenvalues.size)] = 1.0
        return int(rows.min()), window
    # WKB: a row with |a_i - lam| <= 2 sqrt(b_{i-1} b_i) oscillates; beyond,
    # a vector decays by arccosh of that ratio per row.  The distance from
    # a_i to the nearest eigenvalue bounds |a_i - lam| for every one.
    barrier = 2.0 * np.sqrt(np.concatenate([off[:1], off]) * np.concatenate([off, off[-1:]]))
    ratio = np.maximum(eigenvalues.min() - diag, diag - eigenvalues.max()) / barrier
    allowed = np.flatnonzero(ratio <= 1.0)
    lo, hi = (allowed[0], allowed[-1]) if allowed.size else (np.argmin(ratio),) * 2
    decay = np.arccosh(np.maximum(ratio, 1.0))
    lo -= 1 + np.searchsorted(np.cumsum(decay[:lo][::-1]), _WINDOW_DECAY, side="right")
    hi += 1 + np.searchsorted(np.cumsum(decay[hi + 1:]), _WINDOW_DECAY, side="right")
    lo, hi = int(max(lo, 0)), int(min(hi, n))

    b = off[lo:hi]
    coupling = (b * b).tolist()
    pivmin = 4.0 * np.finfo(float).tiny * max(1.0, float(np.max(off)) ** 2)
    window = np.empty((hi + 1 - lo, eigenvalues.size))
    for j, lam in enumerate(eigenvalues):
        rows = (diag[lo:hi + 1] - lam).tolist()
        # f from the top has x_{i+1} / x_i = -D+_i / b_i; g from the bottom is
        # the same in reversed row order.  Twist at the row r where f_r g_r,
        # the Green's function's diagonal, peaks.
        top = np.array(_pivots(rows, coupling, pivmin))
        bottom = np.array(_pivots(reversed(rows), reversed(coupling), pivmin))
        log_f = np.cumsum(np.log(np.r_[1.0, np.abs(top[:-1]) / b]))
        log_g = np.cumsum(np.log(np.r_[1.0, np.abs(bottom[:-1]) / b[::-1]]))
        r = int(np.argmax(log_f + log_g[::-1]))
        vector = np.concatenate([_toward_start(top, b, r), [1.0],
                                 _toward_start(bottom, b[::-1], len(rows) - 1 - r)[::-1]])
        # Row 0 positive: one sign change per positive pivot from r up to lo,
        # and lo more above the window when a_0 - lam is positive.
        flips = np.count_nonzero(top[:r] > 0) + (lo if diag[0] > lam else 0)
        window[:, j] = (-1.0) ** flips * vector / np.linalg.norm(vector)
    return lo, window


def _recurrence_admits(n, basis, top) -> bool:
    """Whether ``_level_recurrence`` builds levels 0..top stably.

    The recurrence in k is stable on a row m while level k oscillates there,
    ``|m - S_k| <= 2 e_k``, and while the row is still outside that band,
    where the wanted solution grows with k; it is unstable on a row that
    leaves the band.  Both band edges move outward while
    ``|q - p| sqrt((k+1)(N-k)) <= sqrt(pq) (N - 2k - 1)``; up to
    k = (N-1)/2 the left side grows and the right side falls, so the test at
    the top level covers every level below it.  Each v_k is v_0 times a
    polynomial in m, so it exists only where v_0 is a normal float: the
    top level's band must lie where v_0 is above ``exp(-400)`` of its peak
    (half the twisted window's decay), which leaves the vector hundreds of
    nats to decay before v_0 leaves the normal floats near ``exp(-708)``.
    At p = sin^2 0.8015 and N = 3000 the vectors stay within 1.5e-14 of
    the twisted route down to a band 610 nats deep, then fail: 4e-12 off
    at 626 nats, 2e-9 at 643, 2e-3 at 691.  A basis with ``pq = 0`` has no
    coupling and takes the twisted route.
    """
    p, q = abs(basis[0, 1]) ** 2, abs(basis[0, 0]) ** 2
    if p * q == 0.0:
        return False
    ladder = math.sqrt((top + 1.0) * (n - top))
    if abs(q - p) * ladder > math.sqrt(p * q) * (n - 2.0 * top - 1.0):
        return False

    def log_v0(m):  # log |v_0[m]|
        return 0.5 * (_log_binom(n, m) + m * math.log(p) + (n - m) * math.log(q))

    centre, half = (n - top) * p + top * q, 2.0 * math.sqrt(p * q) * ladder
    edge = min(log_v0(max(0, math.floor(centre - half))), log_v0(min(n, math.ceil(centre + half))))
    return edge - log_v0(min(int((n + 1) * p), n)) >= -0.5 * _WINDOW_DECAY


def _level_recurrence(n, basis, levels):
    """Level-recurrence route of ``_rotated_vectors``: the first row lo of a
    window of rows and one column per level of the rotated vectors on it,
    not yet orthonormal, for levels that ``_recurrence_admits``.

    With ``p = |U_01|^2``, ``q = |U_00|^2`` (not 1 - p, which loses digits
    at p near 1) and ``e_k = sqrt(pq (k+1)(N-k))``, row m of the vectors
    obeys ``v_{k+1} = (((N-k-m) p + (k-m) q) v_k - e_{k-1} v_{k-1}) / e_k``
    with v_{-1} = 0.  ``[[p, sqrt(pq)], [sqrt(pq), q]]`` is p + q times the
    projector on ``U|1>``; its collective operator is tridiagonal in the
    Dicke basis, with diagonal ``S_k = (N-k) p + k q``, and diagonal in the
    rotated one, with eigenvalue ``m (p + q)``.  That eigenvalue, rather
    than m, keeps the relation exact for a float basis that is unitary only
    to rounding (with m, a p + q that missed 1 by 5e-17 put level 315 of
    N = 18 264 at p = 0.98 4e-13 off), and its two products are of the size
    of the band rather than of Np.

    Level 0 is ``v_0[m] = (-1)^m sqrt(Bin(m; N, p))``, built as products of
    the ratios ``|v_0[m+1] / v_0[m]|`` outward from the mode (a sum of log
    ratios would carry the rounding of its partial sums, 1e-14 of a 100-nat
    sum, into every row).  The window holds the rows where v_0 is a normal
    float, within about 708 nats of its peak (a product stalls in the
    subnormals).  Every vector is then positive in row 0, the convention of
    ``_ladder_vectors``.  Each step is a few numpy passes over the window.
    """
    p, q = abs(basis[0, 1]) ** 2, abs(basis[0, 0]) ** 2
    mode = min(int((n + 1) * p), n)
    half, tiny = 64 + int(60.0 * math.sqrt(n * p * q)), np.finfo(float).tiny
    while True:
        lo, hi = max(mode - half, 0), min(mode + half, n)
        m = np.arange(lo, hi + 1, dtype=float)
        # |v_0[m+1] / v_0[m]| = sqrt(rise / fall), multiplied outward from the mode
        rise, fall, i = (n - m[:-1]) * p, (m[:-1] + 1.0) * q, mode - lo
        v = np.concatenate([np.cumprod(np.sqrt(fall[:i] / rise[:i])[::-1])[::-1], [1.0],
                            np.cumprod(np.sqrt(rise[i:] / fall[i:]))])
        if (lo == 0 or v[0] < tiny) and (hi == n or v[-1] < tiny):
            break
        half *= 2
    keep = np.flatnonzero(v >= tiny)
    m = m[keep[0]:keep[-1] + 1]
    v = v[keep[0]:keep[-1] + 1]
    v[m % 2 == 1] *= -1.0
    v /= np.linalg.norm(v)

    base, top = int(levels[0]), int(levels[-1])
    coupling = math.sqrt(p * q)
    vectors = np.empty((levels.size, m.size))
    prev, e_prev = np.zeros(m.size), 0.0
    for k in range(top):
        if k >= base:
            vectors[k - base] = v
        e_k = coupling * math.sqrt((k + 1.0) * (n - k))
        v, prev, e_prev = (((n - k - m) * p + (k - m) * q) * v - e_prev * prev) / e_k, v, e_k
    vectors[-1] = v
    return lo + int(keep[0]), vectors.T


def _rotated_vectors(n, basis, levels):
    """First row lo and orthonormal columns, one per level, of the rotated
    Dicke vectors on one window of rows; every vector is zero outside it.

    Levels up to the bound of ``_recurrence_admits`` come from the level
    recurrence (``_level_recurrence``), the others (mid-ladder, or with no
    coupling) from the twisted factorization (``_ladder_vectors``).  Both
    routes share the tail: NumericError for a non-finite vector, then
    Gram-Schmidt in level order, as LAPACK stein does for close
    eigenvalues, by one Cholesky QR (exact to rounding, as the columns are
    orthonormal to about 1e-12).  The triangular factor has a positive
    diagonal, so the QR keeps the signs.
    """
    route = _level_recurrence if _recurrence_admits(n, basis, int(levels[-1])) else _ladder_vectors
    lo, window = route(n, basis, levels)
    if not np.all(np.isfinite(window)):
        raise NumericError("a route left a non-finite rotated vector")
    return lo, window @ np.linalg.inv(np.linalg.cholesky(window.T @ window)).T


def rotated_weights(state, basis) -> np.ndarray:
    """Weights ``|<N,m|_U psi>|^2``, m = 0..N, in the Dicke basis built on U.

    ``|N,m>_U`` holds m particles in ``U|1>``.  Its overlap with
    ``|N,k>`` is component m of ``D(U^dag)|N,k>``, an eigenvector of the
    collective operator of ``h = U^dag J_z U``.  Rephasing ``|N,m>`` by
    ``exp(i m arg h_10)`` makes that operator real symmetric tridiagonal,
    with diagonal ``a_m = (N-m) h_00 + m h_11`` and off-diagonal
    ``b_m = |h_10| sqrt((m+1)(N-m))``; the common phase of row m drops out
    of the weights.  Its eigenvalues are known: with
    ``rho = sqrt((h_11 - h_00)^2 + 4|h_10|^2)`` (1 in exact arithmetic),
    ``lambda_k = N (h_00 + h_11)/2 + rho (k - N/2)``, taken from the
    floating-point h so that they are the stored matrix's eigenvalues to
    rounding (``k - N/2`` misses them by up to 2e-11 at N = 10^5).

    The vectors come from one of two routes, chosen from N, U and the top
    level alone (``_rotated_vectors``):

    * levels 0 up to a top level that ``_recurrence_admits``: under ``sx``
      every top level below N/2 up to N of about 1000 and about 400 beyond,
      under ``bloch:1.2,0.3`` about N/3 and about 390; never a mid-ladder
      state.  The three-term recurrence in the level index k, vectorised
      over the rows (``_level_recurrence``), from
      ``v_0[m] = (-1)^m sqrt(Bin(m; N, |U_01|^2))``.  Cost: O(window * top
      level) numpy work, the window being the rows where v_0 is a normal
      float, O(sqrt(N)) of them (about 17 000 at N = 10^5 under ``sx``).
    * everything else, mid-ladder states in particular: a twisted
      factorization at each eigenvalue (Fernando 1997; Parlett and Dhillon,
      ``_ladder_vectors``): pivots ``D+`` of ``T - lambda`` from the top and
      ``D-`` from the bottom, each a plain Python loop, with pivots below
      ``4 * tiny * max(1, max b^2)`` replaced by minus that bound.  The
      twist index r maximises ``log|f_r| + log|g_r|``, the diagonal of the
      Green's function, for the solutions f from the top and g from the
      bottom; the vector is the product of pivot ratios outward from r,
      summed as logs from r, with signs by parity, and a row next to a node
      (after a pivot below 1e-3 of its coupling, such as an exact zero) is
      stepped over by the product of two pivots.  The sweeps run only on
      one window of rows shared by the state's levels: the rows allowed for
      some lambda_k, ``|a_m - lambda_k| <= 2 sqrt(b_{m-1} b_m)``, widened
      until the WKB decay, the sum of
      ``arccosh(d_m / (2 sqrt(b_{m-1} b_m)))`` with d_m the distance from
      a_m to the nearest lambda_k, passes 800 nats.  Cost: two Python-loop
      sweeps over the window per level (about 0.1 us per row); a mid-ladder
      window spans the whole ladder.  In a diagonal basis (h_10 = 0) each
      vector is a unit vector.

    Both routes end in one Cholesky QR in level order, and the amplitudes
    are summed on the window rows only.

    Row 0 fixes the phase of each level: ``<N,0|_U |N,k>`` is
    ``sqrt(C(N,k)) conj(U_00)^(N-k) conj(U_10)^k``, and the rephasing leaves
    row 0 alone.  With every vector positive in row 0 (see
    ``_ladder_vectors``), level k therefore carries the phase
    ``exp(-i N arg U_00) exp(i k chi)`` with ``chi = arg U_00 - arg U_10``.
    The first factor is global and drops out of the weights, so up to the
    phase of each row the amplitudes are ``vectors @ (c_k exp(i k chi))``.
    In a diagonal basis the vectors have disjoint supports and no phase
    matters.  Raises NumericError when a vector is not finite or the
    weights miss unit mass by more than 1e-10.
    """
    n = state.n_particles
    lo, vectors = _rotated_vectors(n, basis, state.levels)
    chi = np.angle(basis[0, 0]) - np.angle(basis[1, 0])
    phased = state.coeffs * np.exp(1j * chi * state.levels)
    weights = np.zeros(n + 1)
    weights[lo:lo + vectors.shape[0]] = np.sum(
        (vectors @ np.column_stack([phased.real, phased.imag])) ** 2, axis=1)
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

    * projective POVMs: those whose ``povm.common_eigenbasis`` gives every
      outcome probability within 1e-12 of 0 or 1, so that column b of the
      basis always yields outcome ``j_b``, the one of probability 1.  With m
      particles in the second basis state the intensity index is
      ``(N-m)*j_0 + m*j_1``, and its probability is the state's weight
      on the rotated Dicke state ``|N,m>_U`` (see ``rotated_weights``).
      The weights are nonnegative, so nothing cancels; cost O(N * levels).
    * every other POVM: the lattice characteristic function at the
      L = N*J+1 conjugate frequencies, inverted by a DFT; cost
      O(N * levels^2) Dicke sums that cancel for mid-ladder levels.

    The values are ``X = (N (a_min - mu) + m step) / (tau N^alpha)``, with
    ``a_min - mu`` taken first: an outcome shift far larger than the
    outcomes' spread cancels in that one subtraction (exact when the two
    are within a factor of 2), not after both are scaled by N.

    Raises
    ------
    OffLatticeError
        If the outcomes are not commensurate.
    CapExceededError
        If ``N * J`` exceeds ``DEFAULT_LATTICE_CAP`` (2^22).
    NumericError
        If a rotated vector is not finite, the rotated weights miss unit
        mass by more than 1e-10, or inversion leaves an imaginary residue
        above 1e-10.
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

    common = common_eigenbasis(povm)
    if common is None or np.any(np.minimum(common[1], 1.0 - common[1]) > _SHARP_ATOL):
        p = _inverted_probs(state, povm, idx, size)
    else:
        basis, column_probs = common
        weights = rotated_weights(state, basis)
        j0, j1 = idx[np.argmax(column_probs, axis=0)]
        excited = np.arange(n + 1)
        p = np.bincount((n - excited) * j0 + excited * j1,
                        weights=weights, minlength=size)
    p = p / p.sum()

    scale = params.tau * float(n) ** a
    m = np.arange(size, dtype=float)
    values = (n * (a_min - params.mu) + m * step) / scale
    return LatticePmf(values=values, probs=p)


def char_fn_finite(state, povm, params, alpha, t):
    """E[exp(i t X)]: ``limits.lattice_char_fn`` of ``pmf_finite`` (same arguments).

    Raises whatever ``pmf_finite`` raises: ``OffLatticeError`` or
    ``CapExceededError`` for incommensurate outcomes, and the inversion
    route's ``NumericError`` or ``NegativeDensityError`` for
    non-projective POVMs on mid-ladder states.
    """
    from .limits import lattice_char_fn  # on call: no finite-N law needs limits

    pmf = pmf_finite(state, povm, params, alpha)
    return lattice_char_fn(pmf.values, pmf.probs, t)


def moments_finite(state, povm, params, alpha, order=4) -> Moments:
    """Raw and central moments of X up to ``order`` from the exact PMF."""
    order = check_integer(order, "order", 1, 8)
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
    t_arr = np.atleast_1d(check_real_array(t, "t"))
    pmf = brute_force_pmf(state, povm, params, alpha)
    values = np.exp(1j * np.outer(t_arr, pmf.values)) @ pmf.probs
    return complex(values[0]) if np.ndim(t) == 0 else values


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
