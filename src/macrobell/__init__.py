"""Coarse-grained collective measurements on symmetric many-qubit states.

Exact finite-size statistics of collective measurement records, their
limit laws under square-root and full coarse graining, bipartite Bell
correlations of the limit objects, noise and loss robustness, a local
hidden-variable construction for the fully coarse-grained branch, and an
exact sampler.

Submodules are imported lazily: ``import macrobell`` stays cheap, and the
command-line entry point gets to pin the BLAS thread environment before
numpy comes in.  Everything listed in ``__all__`` is reachable directly
from the package root.
"""

from __future__ import annotations

import importlib

from .errors import (
    CapExceededError,
    DegenerateOffDiagonalError,
    DivergentWidthError,
    DuplicateOutcomeError,
    GridTooNarrowError,
    InvalidLossError,
    MacrobellError,
    NegativeDensityError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    NumericError,
    OffLatticeError,
    SingularChannelError,
    ValidationError,
)

_EXPORTS = {
    # povm
    "SingleParticlePovm": "povm",
    "DerivedParams": "povm",
    "validate_povm": "povm",
    "common_eigenbasis": "povm",
    "derive_params": "povm",
    "projective_from_bloch": "povm",
    "povm_to_json": "povm",
    "povm_from_json": "povm",
    "PAULI_X": "povm",
    "PAULI_Y": "povm",
    "PAULI_Z": "povm",
    # finite_n
    "DickeSuperposition": "finite_n",
    "LatticePmf": "finite_n",
    "Moments": "finite_n",
    "char_fn_finite": "finite_n",
    "lattice_char_fn": "finite_n",
    "pmf_finite": "finite_n",
    "rotated_weights": "finite_n",
    "moments_finite": "finite_n",
    "brute_force_pmf": "finite_n",
    "brute_force_char_fn": "finite_n",
    "total_variation": "finite_n",
    "DEFAULT_LATTICE_CAP": "finite_n",
    "BRUTE_FORCE_MAX_N": "finite_n",
    # limits
    "GridDensity": "limits",
    "LimitState": "limits",
    "hermite": "limits",
    "level_rows": "limits",
    "gauss_legendre": "limits",
    "real_half_width": "limits",
    "default_real_grid": "limits",
    "default_rotor_grid": "limits",
    "limit_density_alpha_half": "limits",
    "limit_charfn_alpha_half": "limits",
    "limit_density_alpha_one": "limits",
    "rotor_pushforward": "limits",
    "verify_hermite_lemma": "limits",
    # bell
    "SignOverlapTable": "bell",
    "sign_overlap_table": "bell",
    "BellConfig": "bell",
    "correlator": "bell",
    "chsh_value": "bell",
    "OptimizeResult": "bell",
    "optimize_chsh": "bell",
    "JointGridDensity": "bell",
    "LocalModelResult": "bell",
    "local_model_alpha_one": "bell",
    # noise
    "NoiseSpec": "noise",
    "loss_width": "noise",
    "loss_char_fn_finite": "noise",
    "lossy_povm": "noise",
    "depolarize_povm": "noise",
    "dephase_povm": "noise",
    "NoisyLimitParams": "noise",
    "noisy_limit_params": "noise",
    "SweepResult": "noise",
    "noisy_chsh_sweep": "noise",
    # sampling
    "SampleBatch": "sampling",
    "sample_outcomes": "sampling",
    "ks_distance": "sampling",
    "scaling_exponent": "sampling",
}

__all__ = sorted(
    [
        "MacrobellError",
        "ValidationError",
        "NumericError",
        "NotHermitianError",
        "NotPositiveError",
        "NotCompleteError",
        "DuplicateOutcomeError",
        "DegenerateOffDiagonalError",
        "OffLatticeError",
        "CapExceededError",
        "InvalidLossError",
        "SingularChannelError",
        "GridTooNarrowError",
        "NegativeDensityError",
        "DivergentWidthError",
        *_EXPORTS,
    ]
)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
