"""Sequential window sampler: an independent oracle for ``sample_outcomes``.

Measuring the particles of a Dicke superposition one at a time only ever
needs the sesquilinear form of the unmeasured remainder on a narrow window
of Dicke levels: the branching rule

    |n, j>  =  sqrt((n-j)/n) |0>|n-1, j>  +  sqrt(j/n) |1>|n-1, j-1>

turns one measurement step into a 2x2-indexed update of that window, so a
record of N outcomes costs O(N w^2) for a window of w levels, which starts
at the state's level count and grows by at most ``base_level``.  It works
for every POVM, commuting or not, and shares no code with the rotated
Dicke weights or the characteristic-function inversion.
"""

import numpy as np

#: Samples per vectorized block times window area, bounding memory.
_BLOCK_ELEMENTS = 1 << 20


def window_sample(state, povm, params, alpha, n_samples, seed):
    """``n_samples`` records of X; record i uses its own Philox stream."""
    n = state.n_particles
    effects = np.stack(povm.effects)                     # (n_out, 2, 2)
    outcome_values = np.asarray(povm.outcomes, dtype=float)
    width = state.base_level + state.coeffs.size
    block = max(1, _BLOCK_ELEMENTS // max(n, width * width))

    intensity = np.empty(n_samples)
    for start in range(0, n_samples, block):
        count = min(block, n_samples - start)
        uniforms = np.empty((count, n))
        for i in range(count):
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=(start + i) << 128))
            uniforms[i] = gen.random(n)
        intensity[start:start + count] = _sample_block(
            state, effects, outcome_values, uniforms)
    return (intensity - n * params.mu) / (params.tau * n**float(alpha))


def _sample_block(state, effects, outcome_values, uniforms):
    """Intensity totals for one vectorized block of samples."""
    n_total = state.n_particles
    count = uniforms.shape[0]
    lo = state.base_level
    hi = state.base_level + state.coeffs.size - 1

    m = np.broadcast_to(
        np.outer(state.coeffs, np.conj(state.coeffs)),
        (count, hi - lo + 1, hi - lo + 1),
    ).copy()
    intensity = np.zeros(count)
    n_out = effects.shape[0]

    for step in range(n_total):
        remaining = n_total - step
        new_lo = max(0, lo - 1)
        width = hi - new_lo + 1
        levels = np.arange(new_lo, hi + 1)
        # beta_b(remaining, J + b) for J in the new window; levels that can
        # exceed the remaining particle count carry exactly zero amplitude,
        # so their (clamped) branch weights never matter.
        beta0 = np.sqrt(np.clip((remaining - levels) / remaining, 0.0, 1.0))
        beta1 = np.sqrt(np.clip((levels + 1.0) / remaining, 0.0, 1.0))
        betas = (beta0, beta1)

        padded = np.zeros((count, width + 1, width + 1), dtype=complex)
        off = lo - new_lo
        old = hi - lo + 1
        padded[:, off:off + old, off:off + old] = m

        # Outcome probabilities via the 2x2 transfer form T[b', b].
        t_form = np.empty((count, 2, 2), dtype=complex)
        for b in (0, 1):
            for bp in (0, 1):
                diag = np.diagonal(padded[:, b:b + width, bp:bp + width],
                                   axis1=1, axis2=2)
                t_form[:, bp, b] = diag @ (betas[b] * betas[bp])
        probs = np.tensordot(t_form, effects, axes=([1, 2], [1, 2])).real
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)

        cumulative = np.cumsum(probs, axis=1)
        drawn = np.minimum(
            (cumulative < uniforms[:, step][:, None]).sum(axis=1), n_out - 1)
        intensity += outcome_values[drawn]

        chosen = effects[drawn]                          # (count, 2, 2)
        updated = np.zeros((count, width, width), dtype=complex)
        for b in (0, 1):
            for bp in (0, 1):
                weight = np.outer(betas[b], betas[bp])
                updated += (chosen[:, bp, b][:, None, None]
                            * weight[None, :, :]
                            * padded[:, b:b + width, bp:bp + width])
        trace = np.einsum("sjj->s", updated).real
        m = updated / trace[:, None, None]
        lo = new_lo
    return intensity
