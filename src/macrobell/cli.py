"""Batch command-line surface for all engines.

JSON in, CSV or JSON out, one artifact per invocation.  Exit code 0 on
success, 1 when the inputs are rejected, 2 when an admissible computation
detects a numeric inconsistency; in the failure cases a machine-readable
JSON error object goes to stderr.  Output files are written atomically
(temp file in the target directory, then rename), so a crashed run never
leaves a truncated artifact.

CSV artifacts hold every float as its ``%.17e`` text (18 significant
digits) and every integer as its ``%d`` text.  They are built and written
in blocks of ``_CSV_BLOCK_ROWS`` rows, to the temp file or to stdout, so
the whole text is never held in memory; numpy builds the digits, and the
bytes are those of formatting every value in Python.

Each input is parsed once, by the handler that uses it.  argparse binds
every subcommand to its handler and passes it the namespace.  The parser
that owns an option's grammar also reads the file the option names:
``_load_povm`` for ``--povm``, ``_parse_coeffs_vector`` for ``--coeffs``.
Only the output path is resolved, and ``sample``'s need for one checked,
before the handler runs.

The thread cap (``--threads`` or the MACROBELL_THREADS environment
variable) is applied to the BLAS/OpenMP environment before numpy is first
imported, which is why every engine import in this module is deferred
into the command handlers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .errors import MacrobellError, NumericError, ValidationError, check_alpha

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Bloch angles (polar, azimuthal) of the named projective presets.
_POVM_PRESETS = {
    "sx": (math.pi / 2.0, 0.0),
    "sy": (math.pi / 2.0, math.pi / 2.0),
    "sz": (0.0, 0.0),
}

_PAPER_COEFFS = (2.0 / math.sqrt(10.0), 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(10.0))

#: ``--state`` presets as (level coefficients, base level); ``dicke:<k>`` is
#: ``(1,)`` at base level k.  ``w`` is |N, 1>, as ``DickeSuperposition.w_state``.
_STATE_PRESETS = {"w": ((1.0,), 1), "paper": (_PAPER_COEFFS, 0)}

_CSV_SIG_DIGITS = 18

#: Rows the CSV writer formats and writes at a time, so an artifact's text is
#: never held in memory whole.
_CSV_BLOCK_ROWS = 4096

#: Bytes per CSV cell before its pads are dropped: the widest ``%.17e`` text
#: (25), two pads and the separator, as seven 4-byte words.  Text formatted
#: by Python fills the first 27 bytes (``%-27``).
_CELL_BYTES = 28
_PAD = ord(" ")

#: Float cells whose magnitude lies in this range get their digits from
#: numpy; every other nonzero cell (subnormals, the extremes, inf and nan) is
#: formatted by Python.  In this range 10**(17 - e), its low part and the
#: 2**27 + 1 split products stay normal and finite.  ``floor(log10|x|)`` of
#: such a cell lies in [_EXP_MIN, _EXP_MAX], one wider for rounding of the log.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_EXP_MIN, _EXP_MAX = -281, 280


def _fmt(x: float) -> str:
    """One float, 18 significant digits, exponent notation."""
    return f"{float(x):.{_CSV_SIG_DIGITS - 1}e}"


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the normal error channel."""

    def error(self, message):
        raise ValidationError(message)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    resolved = os.path.abspath(path)
    parent = os.path.dirname(resolved)
    if not os.path.isdir(parent):
        raise ValidationError(f"output directory does not exist: {parent}")
    return resolved


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get("MACROBELL_THREADS")
        if env is None:
            return
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"MACROBELL_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise ValidationError("thread cap must be at least 1")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _write_atomic(path: str, chunks) -> None:
    """Write the text ``chunks`` to a temp file beside ``path`` and rename it
    over ``path`` once the last chunk is written; on any failure the temp
    file is removed and ``path`` keeps its old bytes."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".macrobell-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _deliver(args: argparse.Namespace, chunks, summary: dict | None = None) -> None:
    """Write the artifact's text ``chunks``; with a file target, the summary
    goes to stdout."""
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        _write_atomic(args.out, chunks)
        if summary is not None:
            sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


def _pow10_parts(k: int):
    """10**k as hi + lo: hi the double nearest to it, lo the double nearest
    to the rest, both from exact integers (int / int is correctly rounded)."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(x):
    """Dekker's split of doubles into 26-bit halves: x = high + low exactly."""
    scaled = 134217729.0 * x  # 2**27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _exact_product(a, b):
    """Dekker's product: a * b = head + err exactly, head the rounded product."""
    head = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return head, ((a_hi * b_hi - head) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _float_cells(x, words, tables, scale):
    """Write the ``%.17e`` text of the float64 values ``x`` into ``words``,
    their (len(x), 7) cell words, and return the mask of the nonzero cells
    left to Python (a zero's text comes out of the digit route).

    With e = floor(log10|x|), y = |x| * 10**(17 - e) lies in [1e17, 1e18) and
    its 18 digits are y rounded to an integer.  y is taken as a double-double
    (the exact product of |x| and hi, plus |x| * lo; ``scale`` holds hi and
    lo of each power, filled on first use), so its fraction is known
    to ~1e-13; a cell whose fraction lies within 1e-6 of a rounding tie, whose
    unrounded y falls outside [1e17, 1e18) or rounds up to 1e18, or whose
    magnitude lies outside [_FAST_MIN, _FAST_MAX] goes to Python instead.
    """
    import numpy as np

    quads, lead, expo = tables
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    mag = np.where(fast, mag, 1.0)
    exp_index = np.floor(np.log10(mag)).astype(np.intp) - _EXP_MIN
    hi_table, lo_table = scale
    for i in set(exp_index[np.isnan(hi_table[exp_index])].tolist()):  # np.unique imports numpy.ma
        hi_table[i], lo_table[i] = _pow10_parts(17 - _EXP_MIN - i)
    head, err = _exact_product(mag, hi_table[exp_index])
    tail = err + mag * lo_table[exp_index]
    whole = np.floor(tail)
    frac = tail - whole
    # head is an integer-valued double (>= 2**53); the clamp keeps a cell
    # whose log was one off inside int64
    unrounded = np.minimum(head, 2e18).astype(np.int64) + whole.astype(np.int64)
    digits = unrounded + (frac > 0.5)
    fast &= (unrounded >= 10**17) & (digits < 10**18) & (np.abs(frac - 0.5) > 1e-6)
    digits = np.where(fast, digits, 0)  # with e = 0 (mag 1), the text of a zero
    # floor division by a constant is fast in numpy and divmod is not
    top = digits // 10**16
    words[:, 0] = lead[top + 100 * np.signbit(x)]
    digits -= top * 10**16
    for col, power in enumerate((10**12, 10**8, 10**4), start=1):
        quad = digits // power
        words[:, col] = quads[quad]
        digits -= quad * power
    words[:, 4] = quads[digits]
    words[:, 5] = expo[0][exp_index]
    words[:, 6] = expo[1][exp_index]
    return ~fast & (x != 0.0)


def _csv_tables():
    """4-byte cell words: the digits of 0..9999; sign, first digit, point and
    second digit of 0..99 (+ 100 for a minus); and two rows of words, the
    exponent text of each e in [_EXP_MIN, _EXP_MAX] padded to 8 bytes."""
    import numpy as np

    ten = np.frombuffer(b"0123456789", dtype=np.uint8)
    quads = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1)
    lead = b"".join(b"%c%d.%d" % (sign, i // 10, i % 10) for sign in b" -" for i in range(100))
    expo = b"".join(b"%-8s" % (b"e%+03d" % e) for e in range(_EXP_MIN, _EXP_MAX + 1))
    return (quads.view(np.uint32).ravel(), np.frombuffer(lead, dtype=np.uint32),
            np.frombuffer(expo, dtype=np.uint32).reshape(-1, 2).T.copy())


def _python_cells(template: str, values: list):
    """Python's ``template % value`` text of each value, as a (len, 27) byte
    array; the template pads every text to exactly 27 characters."""
    import numpy as np

    text = (template * len(values) % tuple(values)).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, 27)


def _csv_blocks(header, *columns):
    """The CSV text of ``header`` and one row per index of the equal-length
    ``columns``: the header line, then blocks of ``_CSV_BLOCK_ROWS`` rows.

    Every float cell is its ``_fmt`` text (-0.0, subnormals, inf and nan
    included) and every integer cell its ``%d`` text, byte for byte.  numpy
    lays each block out as fixed-width cells padded with spaces
    (``_float_cells`` writes the digits), Python's ``%`` fills the float
    cells it leaves, in one call per block, and each integer column, and
    one mask drops the pads.
    """
    import numpy as np

    columns = [np.asarray(c) for c in columns]
    integer = [j for j, c in enumerate(columns) if c.dtype.kind in "iu"]
    tables = _csv_tables()
    scale = np.full((2, _EXP_MAX - _EXP_MIN + 1), np.nan)
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [c[start:start + _CSV_BLOCK_ROWS] for c in columns]
        # integer columns ride along as floats and are overwritten below
        values = np.column_stack(block).astype(np.float64, copy=False).ravel()
        words = np.empty((values.size, _CELL_BYTES // 4), dtype=np.uint32)
        slow = _float_cells(values, words, tables, scale)
        cells = words.view(np.uint8).reshape(len(block[0]), len(columns), _CELL_BYTES)
        slow.reshape(cells.shape[:2])[:, integer] = False
        slow = np.flatnonzero(slow)
        if slow.size:
            cells.reshape(-1, _CELL_BYTES)[slow, :27] = _python_cells(
                f"%-27.{_CSV_SIG_DIGITS - 1}e", values[slow].tolist())
        for j in integer:
            cells[:, j, :27] = _python_cells("%-27d", block[j].tolist())
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        flat = cells.reshape(-1)
        yield str(memoryview(flat[flat != _PAD]), "ascii")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# input parsing
# --------------------------------------------------------------------------

def _parse_number(kind, token: str):
    """``kind(token)`` (int, float or complex), or a ValidationError."""
    try:
        if kind is complex:
            return complex(token.strip().replace("i", "j"))
        return kind(token)
    except ValueError:
        raise ValidationError(f"cannot parse {token!r} as {kind.__name__}") from None


def _read_input(path: str) -> str:
    """The text of the input file ``path``; an unreadable one is a ValidationError."""
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"input file {path} is not text") from None


def _load_json(path: str):
    text = _read_input(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _coeffs_from_json(obj):
    """A JSON list of numbers or [re, im] pairs -> complex list."""
    values = []
    for entry in obj:
        if isinstance(entry, (int, float)):
            values.append(complex(entry))
        elif isinstance(entry, list) and len(entry) == 2:
            values.append(complex(entry[0], entry[1]))
        else:
            raise ValidationError(f"coefficient entry {entry!r} is not a number or [re, im]")
    return values


def _normalized(values, what: str):
    import numpy as np

    arr = np.asarray(values, dtype=complex)
    norm = float(np.linalg.norm(arr))
    if norm <= 0.0:
        raise ValidationError(f"{what} must not be identically zero")
    return arr / norm


def _parse_coeffs_vector(spec: str):
    """Level coefficients: paper|w|equal:<d>, a JSON file (``@path``, or a
    path ending in ``.json``), or a comma list."""
    import numpy as np

    if spec == "paper":
        return np.asarray(_PAPER_COEFFS, dtype=complex)
    if spec == "w":
        return np.asarray([0.0, 1.0], dtype=complex)
    if spec.startswith("equal:"):
        d = _parse_number(int, spec.split(":", 1)[1])
        if d < 1:
            raise ValidationError("equal:<d> needs d >= 1")
        return np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    if spec.startswith("@") or spec.endswith(".json"):
        data = _load_json(spec.removeprefix("@"))
        if not isinstance(data, list):
            raise ValidationError("coefficient JSON must be a flat list")
        return _normalized(_coeffs_from_json(data), "coefficients")
    return _normalized([_parse_number(complex, t) for t in spec.split(",")], "coefficients")


def _parse_coeffs_matrix(spec: str, seed: int | None, dim: int | None):
    """Joint coefficients c_kl: 'random' (of size ``dim``, default 3, drawn
    from ``seed``, default 0), a JSON file (as for ``_parse_coeffs_vector``),
    or ';'-separated rows, which take neither ``dim`` nor ``seed``."""
    import numpy as np

    if spec == "random":
        dim = 3 if dim is None else dim
        if dim < 1:
            raise ValidationError("--dim must be at least 1")
        rng = np.random.default_rng(0 if seed is None else seed)
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return _normalized(mat, "joint coefficients").reshape(dim, dim)
    if (dim, seed) != (None, None):
        raise ValidationError("--dim and --seed apply only to --coeffs random")
    if spec.startswith("@") or spec.endswith(".json"):
        data = _load_json(spec.removeprefix("@"))
        if not isinstance(data, list) or not data or not isinstance(data[0], list):
            raise ValidationError("joint-coefficient JSON must be a nested list")
        rows = [_coeffs_from_json(row) for row in data]
    else:
        rows = [[_parse_number(complex, t) for t in row.split(",")] for row in spec.split(";")]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError("joint-coefficient rows must have equal length")
    mat = np.asarray(rows, dtype=complex)
    return _normalized(mat, "joint coefficients").reshape(mat.shape)


def _parse_range(spec: str):
    """'start:stop:count' -> inclusive linspace."""
    import numpy as np

    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range {spec!r} must look like start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"cannot parse range {spec!r}")
    if count < 1:
        raise ValidationError("range count must be at least 1")
    return np.linspace(start, stop, count)


def _parse_int_list(spec: str):
    return [_parse_number(int, t) for t in spec.split(",")]


def _load_povm(spec: str):
    """A POVM: sx|sy|sz, bloch:<theta>,<phi>, or the path of a JSON file."""
    from .povm import povm_from_json, projective_from_bloch

    if spec in _POVM_PRESETS:
        return projective_from_bloch(*_POVM_PRESETS[spec])
    if spec.startswith("bloch:"):
        angles = spec.split(":", 1)[1].split(",")
        if len(angles) != 2:
            raise ValidationError("bloch:<theta>,<phi> needs two angles")
        return projective_from_bloch(*(_parse_number(float, a) for a in angles))
    return povm_from_json(_read_input(spec))


def _state_levels(args: argparse.Namespace):
    """(coefficients, base level) of the finite-N state: ``--coeffs`` at
    ``--base-level``, or a ``--state`` preset at its own base level."""
    import numpy as np

    if args.coeffs is not None:
        return _parse_coeffs_vector(args.coeffs), args.base_level
    if args.base_level:
        raise ValidationError("--base-level applies to --coeffs; a --state sets its own level")
    spec = args.state
    if spec.startswith("dicke:"):
        coeffs, base_level = (1.0,), _parse_number(int, spec.split(":", 1)[1])
    elif spec in _STATE_PRESETS:
        coeffs, base_level = _STATE_PRESETS[spec]
    else:
        raise ValidationError(f"unknown state {spec!r}; use w, paper, or dicke:<k>")
    return np.asarray(coeffs, dtype=complex), base_level


def _derived(povm, alpha: float, mu, tau):
    from .povm import derive_params

    mode = "half" if alpha == 0.5 else "one"
    return derive_params(povm, mode=mode, mu=mu, tau=tau)


def _finite_inputs(args: argparse.Namespace):
    """(alpha, povm, params, (coefficients, base level)) of dist, sample and converge."""
    alpha = check_alpha(args.alpha)
    povm = _load_povm(args.povm)
    return alpha, povm, _derived(povm, alpha, args.mu, args.tau), _state_levels(args)


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------

def _cmd_dist(args: argparse.Namespace) -> None:
    from .finite_n import DickeSuperposition, pmf_finite

    alpha, povm, params, levels = _finite_inputs(args)
    pmf = pmf_finite(DickeSuperposition(args.n, *levels), povm, params, alpha)
    _deliver(args, _csv_blocks(("x", "prob"), pmf.values, pmf.probs),
             summary={"points": pmf.values.size, "total_prob": float(pmf.probs.sum())})


def _cmd_limit(args: argparse.Namespace) -> None:
    from .limits import (LimitState, default_real_grid, default_rotor_grid,
                         limit_density_alpha_half, limit_density_alpha_one)

    alpha = check_alpha(args.alpha)
    coeffs = _parse_coeffs_vector(args.coeffs)
    params = _derived(_load_povm(args.povm), alpha, None, None)
    phi = params.phi if args.phi is None else args.phi

    if alpha == 0.5:
        width = math.sqrt(max(params.s2, 0.0)) if args.width is None else args.width
        state = LimitState(coeffs=coeffs, phi=phi, width=width)
        grid = (None if args.points is None
                else default_real_grid(state.k_max, args.points, state.width))
        density = limit_density_alpha_half(state, grid)
        header = ("x", "density")
    else:
        if args.width:  # a width derived from the POVM has no alpha = 1 meaning
            raise ValidationError("width applies only to alpha = 0.5")
        grid = None if args.points is None else default_rotor_grid(args.points)
        density = limit_density_alpha_one(coeffs, phi, theta_grid=grid)
        header = ("theta", "density")
    _deliver(args, _csv_blocks(header, density.grid, density.density),
             summary={"points": density.grid.size, "integral": density.integral()})


def _cmd_chsh(args: argparse.Namespace) -> None:
    from .bell import PAIR_NAMES, BellConfig, chsh_value, correlator, optimize_chsh

    coeffs = _parse_coeffs_vector(args.coeffs)
    if args.optimize:
        angles = optimize_chsh(coeffs).angles
    else:
        angles = tuple(_parse_number(float, t) for t in args.angles.split(","))
        if len(angles) != 4:
            raise ValidationError("--angles needs phi_a,phi_a',phi_b,phi_b'")
    bell_config = BellConfig(schmidt_coeffs=coeffs, phi_a=angles[0],
                             phi_a_prime=angles[1], phi_b=angles[2],
                             phi_b_prime=angles[3])
    payload = {
        "value": chsh_value(bell_config),
        "angles": {
            "phi_a": angles[0],
            "phi_a_prime": angles[1],
            "phi_b": angles[2],
            "phi_b_prime": angles[3],
        },
        "correlators": {pair: correlator(bell_config, pair) for pair in PAIR_NAMES},
        "optimized": bool(args.optimize),
    }
    _deliver(args, [_json_text(payload)], summary={"value": payload["value"]})


def _cmd_local_model(args: argparse.Namespace) -> None:
    import numpy as np

    from .bell import local_model_alpha_one
    from .limits import default_rotor_grid

    matrix = _parse_coeffs_matrix(args.coeffs, args.seed, args.dim)
    grids = None if args.points is None else (default_rotor_grid(args.points),) * 2
    result = local_model_alpha_one(matrix, args.phi_a, args.phi_b,
                                   theta_grids=grids)
    quantum, lhv = result.quantum_joint, result.lhv_joint
    theta_a, theta_b = np.meshgrid(quantum.x_grid, quantum.y_grid, indexing="ij")
    q, c = quantum.density.ravel(), lhv.density.ravel()
    _deliver(args,
             _csv_blocks(("theta_a", "theta_b", "quantum", "lhv", "abs_diff"),
                       theta_a.ravel(), theta_b.ravel(), q, c, np.abs(q - c)),
             summary={"max_discrepancy": result.max_discrepancy})


def _cmd_noise_sweep(args: argparse.Namespace) -> None:
    import numpy as np

    from .noise import noisy_chsh_sweep

    coeffs = _parse_coeffs_vector(args.coeffs)
    s_grid = _parse_range(args.s_grid)
    eps_grid = _parse_range(args.eps_grid)
    result = noisy_chsh_sweep(coeffs, s_grid, eps_grid, shape=args.shape)
    eps_column, s_column = np.meshgrid(result.eps_grid, result.s_grid, indexing="ij")
    thresholds = {
        _fmt(eps): (None if math.isnan(t) else t)
        for eps, t in zip(result.eps_grid, result.threshold_s)
    }
    _deliver(args, _csv_blocks(("s", "eps", "chsh"), s_column.ravel(),
                               eps_column.ravel(), result.chsh.ravel()),
             summary={"clean_value": result.clean_value,
                      "angles": list(result.angles),
                      "threshold_s": thresholds})


def _cmd_channel(args: argparse.Namespace) -> None:
    from .noise import NoiseSpec, noisy_limit_params

    povm = _load_povm(args.povm)
    noise = NoiseSpec(loss_p=args.loss, depol_lambda=args.depol,
                      dephase_lambda=args.dephase)
    result = noisy_limit_params(povm, noise, mode=args.mode)
    payload = {
        "s_squared": result.s_squared,
        "s": math.sqrt(result.s_squared) if result.s_squared >= 0.0 else None,
        "phi": result.phi,
        "mode": args.mode,
        "noise": {"loss_p": noise.loss_p, "depol_lambda": noise.depol_lambda,
                  "dephase_lambda": noise.dephase_lambda},
    }
    _deliver(args, [_json_text(payload)], summary={"s_squared": result.s_squared})


def _cmd_sample(args: argparse.Namespace) -> None:
    from .finite_n import DickeSuperposition
    from .sampling import sample_outcomes

    alpha, povm, params, levels = _finite_inputs(args)
    batch = sample_outcomes(DickeSuperposition(args.n, *levels), povm, params, alpha,
                            args.n_samples, args.seed)
    sidecar = {
        "seed": batch.seed,
        "N": batch.n_particles,
        "n_samples": batch.n_samples,
        "alpha": alpha,
        "mu": params.mu,
        "tau": params.tau,
    }
    _write_atomic(args.out + ".meta.json", [_json_text(sidecar)])
    _deliver(args, _csv_blocks(("x",), batch.values), summary=sidecar)


def _cmd_converge(args: argparse.Namespace) -> None:
    import numpy as np

    from .finite_n import DickeSuperposition
    from .limits import (LimitState, limit_density_alpha_half,
                         limit_density_alpha_one, rotor_pushforward)
    from .sampling import ks_distance, sample_outcomes

    if args.mu is not None or args.tau is not None:
        raise ValidationError("converge compares with the limit law of the POVM's own mu "
                              "and tau; --mu and --tau apply to dist and sample")
    alpha, povm, params, (coeffs, base_level) = _finite_inputs(args)
    n_values = _parse_int_list(args.n_list)
    states = [DickeSuperposition(n, coeffs, base_level) for n in n_values]
    # the limit object indexes levels from 0
    level_coeffs = np.concatenate((np.zeros(base_level, dtype=complex), coeffs))
    if alpha == 0.5:
        limit = limit_density_alpha_half(
            LimitState(coeffs=level_coeffs, phi=params.phi,
                       width=math.sqrt(max(params.s2, 0.0))))
    else:
        rotor = limit_density_alpha_one(level_coeffs, params.phi)
        limit = rotor_pushforward(rotor)
    ks = [ks_distance(sample_outcomes(state, povm, params, alpha, args.n_samples, args.seed),
                      limit.cdf)
          for state in states]
    _deliver(args, _csv_blocks(("N", "ks"), n_values, ks),
             summary={"n_values": n_values, "n_samples": args.n_samples})


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

def _selftest_checks():
    """Yield (name, callable) pairs; each callable returns a residual."""
    import numpy as np

    from .bell import (BellConfig, chsh_value, local_model_alpha_one,
                       sign_overlap_table)
    from .finite_n import (DickeSuperposition, brute_force_char_fn,
                           brute_force_pmf, char_fn_finite, pmf_finite,
                           total_variation)
    from .limits import (LimitState, default_real_grid, level_kernels,
                         limit_charfn_alpha_half, limit_density_alpha_half,
                         limit_density_alpha_one, verify_hermite_lemma)
    from .noise import loss_width, noisy_chsh_sweep
    from .povm import derive_params, projective_from_bloch
    from .sampling import sample_outcomes

    sx = projective_from_bloch(math.pi / 2.0, 0.0)
    params = derive_params(sx)
    paper = np.asarray(_PAPER_COEFFS, dtype=complex)
    state8 = DickeSuperposition(n_particles=8, base_level=0, coeffs=paper)

    def sign_overlaps():
        table = sign_overlap_table(3).values
        residual = max(abs(table[0, 1] - math.sqrt(2.0 / math.pi)),
                       abs(table[1, 2] - 1.0 / math.sqrt(math.pi)))
        parity = max(abs(table[0, 0]), abs(table[0, 2]), abs(table[1, 1]))
        return max(residual, 0.0 if parity == 0.0 else 1.0)

    def oracle_pmf():
        exact = pmf_finite(state8, sx, params, 0.5)
        brute = brute_force_pmf(state8, sx, params, 0.5)
        return total_variation(exact, brute)

    def oracle_pmf_mid_ladder():
        tilted = projective_from_bloch(1.2, 0.3)
        tilted_params = derive_params(tilted)
        state = DickeSuperposition.from_coeffs(12, [0.6, 0.48j, -0.64], base_level=5)
        exact = pmf_finite(state, tilted, tilted_params, 0.5)
        brute = brute_force_pmf(state, tilted, tilted_params, 0.5)
        return total_variation(exact, brute)

    def oracle_charfn():
        t = np.linspace(-4.0, 4.0, 9)
        fast = char_fn_finite(state8, sx, params, 0.5, t)
        slow = brute_force_char_fn(state8, sx, params, 0.5, t)
        return float(np.max(np.abs(fast - slow)))

    def hermite_lemma():
        worst = 0.0
        for m, n in ((0, 0), (1, 2), (3, 3)):
            for beta, gamma in ((0.5, 2.0), (1.0, 1.0)):
                worst = max(worst, verify_hermite_lemma(m, n, beta, gamma))
        return worst

    def pmf_normalization():
        return abs(float(pmf_finite(state8, sx, params, 0.5).probs.sum()) - 1.0)

    def pmf_mid_ladder_mass():
        state = DickeSuperposition(n_particles=100, base_level=50, coeffs=paper)
        return abs(float(pmf_finite(state, sx, params, 0.5).probs.sum()) - 1.0)

    def limit_normalization():
        line = limit_density_alpha_half(LimitState(coeffs=paper, phi=math.pi))
        rotor = limit_density_alpha_one(paper, 0.0)
        return max(abs(line.integral() - 1.0), abs(rotor.integral() - 1.0))

    def limit_charfn_high_level():
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
        state = LimitState(coeffs=coeffs / np.linalg.norm(coeffs))
        line = limit_density_alpha_half(state)
        t = np.linspace(-12.0, 12.0, 49)
        direct = np.trapezoid(np.exp(1j * np.outer(t, line.grid)) * line.density, line.grid)
        return float(np.max(np.abs(limit_charfn_alpha_half(state, t) - direct)))

    def wide_kernel_high_level():
        grid = default_real_grid(99, width=0.3)
        return abs(float(np.trapezoid(level_kernels(99, grid, 0.3, 99)[0, 0], grid)) - 1.0)

    def chsh_paper():
        bc = BellConfig(schmidt_coeffs=paper, phi_a=0.0, phi_a_prime=math.pi / 2.0,
                        phi_b=-math.pi / 4.0, phi_b_prime=math.pi / 4.0)
        return abs(chsh_value(bc) - 2.0 * math.sqrt(10.0) / math.pi)

    def lhv_match():
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mat /= np.linalg.norm(mat)
        grid = np.linspace(0.0, np.pi, 41)
        return local_model_alpha_one(mat, 0.3, -0.2,
                                     theta_grids=(grid, grid)).max_discrepancy

    def sampler_reproducible():
        a = sample_outcomes(state8, sx, params, 0.5, 300, seed=5)
        b = sample_outcomes(state8, sx, params, 0.5, 120, seed=5)
        return 0.0 if np.array_equal(a.values[:120], b.values) else 1.0

    def loss_width_unit():
        return abs(loss_width(params, 1.0) - params.s2)

    def sweep_clean_cell():
        sweep = noisy_chsh_sweep(paper, [0.0], [0.0])
        return abs(float(sweep.chsh[0, 0]) - sweep.clean_value)

    return [
        ("sign-overlaps", sign_overlaps, 1e-9),
        ("oracle-pmf", oracle_pmf, 1e-10),
        ("oracle-pmf-mid-ladder", oracle_pmf_mid_ladder, 1e-10),
        ("oracle-charfn", oracle_charfn, 1e-10),
        ("hermite-lemma", hermite_lemma, 1e-8),
        ("pmf-normalization", pmf_normalization, 1e-9),
        ("pmf-mid-ladder-mass", pmf_mid_ladder_mass, 1e-12),
        ("limit-normalization", limit_normalization, 1e-9),
        ("limit-charfn-high-level", limit_charfn_high_level, 1e-12),
        ("wide-kernel-high-level", wide_kernel_high_level, 1e-9),
        ("chsh-paper-value", chsh_paper, 1e-9),
        ("lhv-two-routes", lhv_match, 1e-8),
        ("sampler-reproducible", sampler_reproducible, 0.5),
        ("loss-width-at-unit-transmission", loss_width_unit, 0.0),
        ("sweep-clean-cell", sweep_clean_cell, 0.0),
    ]


def _cmd_selftest(args: argparse.Namespace) -> None:
    failures = 0
    for name, check, budget in _selftest_checks():
        residual = float(check())
        if residual <= budget:
            sys.stdout.write(f"ok   {name} (residual {residual:.3e} <= {budget:.0e})\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL {name} (residual {residual:.3e} > {budget:.0e})\n")
    sys.stdout.write(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}\n")
    if failures:
        raise NumericError(f"selftest: {failures} check(s) failed")


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="macrobell",
                     description="Coarse-grained collective-measurement toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output artifact path (default: stdout)")
    common.add_argument("--threads", type=int, default=None,
                        help="cap internal BLAS/OpenMP parallelism")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, parents=()):
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(handler=handler)
        return p

    # the finite-N state and measurement, shared by dist, sample and converge
    finite = _Parser(add_help=False)
    finite.add_argument("--alpha", type=float, default=0.5)
    finite.add_argument("--povm", required=True,
                        help="sx|sy|sz, bloch:<theta>,<phi>, or a JSON file")
    state = finite.add_mutually_exclusive_group(required=True)
    state.add_argument("--state", default=None,
                       help="w (|N,1>), paper, or dicke:<k>, each at its own base level")
    state.add_argument("--coeffs", default=None,
                       help="level coefficients from --base-level on: paper|w|equal:<d>, "
                            "@file.json, or a comma list")
    finite.add_argument("--base-level", dest="base_level", type=int, default=0)
    finite.add_argument("--mu", type=float, default=None)
    finite.add_argument("--tau", type=float, default=None)

    p = add("dist", _cmd_dist, "exact finite-N PMF of the rescaled intensity -> CSV x,prob",
            parents=[finite])
    p.add_argument("--N", dest="n", type=int, required=True)

    p = add("limit", _cmd_limit,
            "limit density -> CSV x,density (alpha=0.5) or theta,density (alpha=1)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--povm", default="sx",
                   help="POVM that sets phi and width unless they are given (default sx)")
    p.add_argument("--phi", type=float, default=None, help="measurement phase")
    p.add_argument("--width", type=float, default=None,
                   help="smearing width s (alpha=0.5 only)")
    p.add_argument("--points", type=int, default=None,
                   help="grid rows (default 2001 at alpha=1; at alpha=0.5 4001, "
                        "or more from level 167 to resolve the top level)")

    p = add("chsh", _cmd_chsh, "CHSH value and correlators -> JSON")
    p.add_argument("--coeffs", required=True)
    settings = p.add_mutually_exclusive_group(required=True)
    settings.add_argument("--angles", help="phi_a,phi_a',phi_b,phi_b' in radians")
    settings.add_argument("--optimize", action="store_true")

    p = add("local-model", _cmd_local_model, "quantum vs hidden-variable joint at alpha=1 -> CSV")
    p.add_argument("--coeffs", required=True,
                   help="'random', @file.json, or ';'-separated comma rows")
    p.add_argument("--dim", type=int, default=None, help="size for 'random' (default 3)")
    p.add_argument("--seed", type=int, default=None, help="seed for 'random' (default 0)")
    p.add_argument("--phi-a", dest="phi_a", type=float, default=0.0)
    p.add_argument("--phi-b", dest="phi_b", type=float, default=0.0)
    p.add_argument("--points", type=int, default=None)

    p = add("noise-sweep", _cmd_noise_sweep,
            "CHSH over smearing x classical-noise grid -> CSV s,eps,chsh")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--s-grid", dest="s_grid", default="0:0.5:11",
                   help="start:stop:count")
    p.add_argument("--eps-grid", dest="eps_grid", default="0:0.5:6",
                   help="start:stop:count")
    p.add_argument("--shape", choices=("uniform", "truncated_gaussian"),
                   default="uniform")

    p = add("channel", _cmd_channel, "limit parameters after channel noise -> JSON")
    p.add_argument("--povm", required=True)
    p.add_argument("--depol", type=float, default=0.0)
    p.add_argument("--dephase", type=float, default=0.0)
    p.add_argument("--loss", type=float, default=1.0)
    p.add_argument("--mode", choices=("half", "one"), default="half")

    p = add("sample", _cmd_sample,
            "exact i.i.d. records of the rescaled intensity -> CSV x plus JSON sidecar",
            parents=[finite])
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--n-samples", dest="n_samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("converge", _cmd_converge, "KS distance to the limit law per N -> CSV N,ks",
            parents=[finite])
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma list of particle counts")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)

    add("selftest", _cmd_selftest, "run the embedded invariant suite")
    return parser


def _emit_error(exc: MacrobellError) -> None:
    payload = {"error": getattr(exc, "code", "error"), "message": str(exc)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def run(argv=None) -> int:
    """Parse argv, execute one command, and return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _apply_thread_cap(args.threads)
        args.out = _resolve_out(args.out)
        if args.command == "sample" and args.out is None:
            raise ValidationError("sample writes two artifacts; --out is required")
        args.handler(args)
    except ValidationError as exc:
        _emit_error(exc)
        return 1
    except NumericError as exc:
        _emit_error(exc)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
