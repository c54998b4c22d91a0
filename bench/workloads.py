"""Workload definitions and output checks of the macrobell benchmark.

A workload is a fixed list of ``python -m macrobell.cli`` invocations. The
only inputs that depend on the workload seed are the sampler and
local-model ``--seed`` values, so every seed does the same amount of work
and a claim can be rechecked on a seed not used while writing a change.

Each invocation carries its own output check. Checks read the artifact and
the stdout summary after the timed region and return a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("exact-ladder", "bell-noise", "sampler")

#: Engine modules each subcommand's handler imports (see macrobell/cli.py).
SUBCOMMAND_MODULES = {
    "dist": ("povm", "finite_n"),
    "limit": ("povm", "limits"),
    "chsh": ("bell",),
    "local-model": ("bell",),
    "noise-sweep": ("noise",),
    "channel": ("povm", "noise"),
    "sample": ("povm", "finite_n", "sampling"),
    "converge": ("povm", "finite_n", "limits", "sampling"),
}

_PAPER_CHSH = 2.0 * math.sqrt(10.0) / math.pi
_TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, its artifact, and how to check them.

    ``known_failure`` marks a documented-range input that the program
    rejects with a numeric error today (ROADMAP aim 3). Such a call stays
    in the workload; while it exits with code 2 it is reported as a known
    failure, and once it succeeds its artifact gets the normal check.
    """

    name: str
    args: tuple[str, ...]
    out: str
    check: Callable[[Path, dict], list]
    known_failure: bool = False

    @property
    def subcommand(self) -> str:
        return self.args[0]

    def argv(self, workdir: Path) -> list[str]:
        return [*self.args, "--out", str(workdir / self.out)]


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def invocations(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The workload's invocations for ``seed``; ``tiny`` shrinks every size.

    The tiny variant exists for the harness self-test: same subcommands and
    checks, sizes small enough to run in seconds. The two known-failing
    inputs keep their size in both variants.
    """
    if workload == "exact-ladder":
        n_big, n_equal, n_w, n_bloch = (
            (1000, 100, 500, 1000) if tiny else (100000, 2000, 10000, 20000))
        return [
            Invocation("dist.paper.half", ("dist", "--N", str(n_big), "--alpha", "0.5",
                                           "--povm", "sx", "--coeffs", "paper"),
                       "paper_half.csv", _check_dist()),
            Invocation("dist.equal12", ("dist", "--N", str(n_equal), "--povm", "sx",
                                        "--coeffs", "equal:12"),
                       "equal12.csv", _check_dist()),
            Invocation("dist.w", ("dist", "--N", str(n_w), "--povm", "sx", "--state", "w"),
                       "w.csv", _check_dist(w_state_n=n_w)),
            Invocation("dist.paper.one.bloch", ("dist", "--N", str(n_bloch), "--alpha", "1",
                                                "--povm", "bloch:1.2,0.3", "--coeffs", "paper"),
                       "paper_one_bloch.csv", _check_dist()),
            Invocation("dist.paper.base50", ("dist", "--N", "100", "--povm", "sx",
                                             "--coeffs", "paper", "--base-level", "50"),
                       "paper_base50.csv", _check_dist(), known_failure=True),
            Invocation("dist.equal16", ("dist", "--N", "200", "--povm", "sx",
                                        "--coeffs", "equal:16"),
                       "equal16.csv", _check_dist(), known_failure=True),
        ]
    if workload == "bell-noise":
        (model_seed,) = _derived_seeds(seed, 1)
        s_grid, eps_grid, tg_s, tg_eps, dim = (
            ("0:0.5:3", "0:0.5:2", "0:0.4:2", "0:0.4:2", "3") if tiny
            else ("0:0.5:11", "0:0.5:3", "0:0.4:5", "0:0.4:3", "8"))
        return [
            Invocation("chsh.paper", ("chsh", "--coeffs", "paper", "--optimize"),
                       "chsh_paper.json", _check_chsh(expected=_PAPER_CHSH)),
            Invocation("chsh.equal8", ("chsh", "--coeffs", "equal:8", "--optimize"),
                       "chsh_equal8.json", _check_chsh()),
            Invocation("noise-sweep.uniform", ("noise-sweep", "--coeffs", "paper",
                                               "--s-grid", s_grid, "--eps-grid", eps_grid),
                       "sweep_uniform.csv", _check_sweep),
            Invocation("noise-sweep.truncated_gaussian",
                       ("noise-sweep", "--coeffs", "paper", "--s-grid", tg_s,
                        "--eps-grid", tg_eps, "--shape", "truncated_gaussian"),
                       "sweep_tgauss.csv", _check_sweep),
            Invocation("limit.half.paper", ("limit", "--alpha", "0.5", "--coeffs", "paper",
                                             "--povm", "sx"),
                       "limit_half_paper.csv", _check_limit),
            Invocation("limit.half.equal8", ("limit", "--alpha", "0.5", "--coeffs", "equal:8",
                                              "--width", "0.4"),
                       "limit_half_equal8.csv", _check_limit),
            Invocation("limit.one.paper", ("limit", "--alpha", "1", "--coeffs", "paper"),
                       "limit_one_paper.csv", _check_limit),
            Invocation("local-model.random", ("local-model", "--coeffs", "random", "--dim", dim,
                                              "--seed", str(model_seed)),
                       "local_model.csv", _check_local_model),
            Invocation("channel.depol", ("channel", "--povm", "sx", "--depol", "0.1"),
                       "channel.json", _check_channel(depol=0.1)),
        ]
    if workload == "sampler":
        s_w, s_paper, s_wide, s_conv = _derived_seeds(seed, 4)
        n_w, n_paper, n_wide, n_conv = (
            (1000, 500, 200, 500) if tiny else (4000, 20000, 3000, 8000))
        n_list = "10,20,40" if tiny else "50,100,200"
        ks_limit = None if tiny else 0.05
        return [
            Invocation("sample.w.narrow", ("sample", "--N", "800", "--povm", "sx",
                                           "--state", "w", "--n-samples", str(n_w),
                                           "--seed", str(s_w)),
                       "sample_w.csv", _check_sample(("w", 800, 0), 0.5)),
            Invocation("sample.paper.narrow", ("sample", "--N", "100", "--povm", "sx",
                                               "--coeffs", "paper", "--n-samples", str(n_paper),
                                               "--seed", str(s_paper)),
                       "sample_paper.csv", _check_sample(("paper", 100, 0), 0.5)),
            Invocation("sample.paper.wide", ("sample", "--N", "40", "--alpha", "1",
                                             "--povm", "sx", "--coeffs", "paper",
                                             "--base-level", "19", "--n-samples", str(n_wide),
                                             "--seed", str(s_wide)),
                       "sample_wide.csv", _check_sample(("paper", 40, 19), 1.0)),
            Invocation("converge.w", ("converge", "--povm", "sx", "--state", "w",
                                      "--n-list", n_list, "--n-samples", str(n_conv),
                                      "--seed", str(s_conv)),
                       "converge_w.csv", _check_converge(ks_limit)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def engine_modules(invs: list[Invocation]) -> list[str]:
    """Engine modules that the workload's subcommands import, in a fixed order."""
    wanted = {m for inv in invs for m in SUBCOMMAND_MODULES[inv.subcommand]}
    return [m for m in ("povm", "finite_n", "limits", "bell", "noise", "sampling")
            if m in wanted]


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def _read_columns(path: Path):
    import numpy as np

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _sx(mode: str = "half"):
    """The ``sx`` preset of the CLI and its derived parameters."""
    from macrobell.povm import derive_params, projective_from_bloch

    povm = projective_from_bloch(math.pi / 2.0, 0.0)
    return povm, derive_params(povm, mode=mode)


def _check_dist(w_state_n: int | None = None):
    def check(path: Path, summary: dict) -> list:
        cols = _read_columns(path)
        x, p = cols["x"], cols["prob"]
        problems = []
        mass = float(p.sum())
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"mass {mass!r} is not 1 +- 1e-9")
        if w_state_n is not None:
            tau = _sx()[1].tau
            n = w_state_n
            expected = (3.0 * n - 2.0) / (n * tau**2)
            second = float(p @ x**2)
            if abs(second - expected) > 1e-7 * expected:
                problems.append(f"E[X^2] = {second!r}, expected {expected!r}")
        return problems
    return check


def _check_chsh(expected: float | None = None):
    def check(path: Path, summary: dict) -> list:
        payload = json.loads(path.read_text())
        value = payload["value"]
        c = payload["correlators"]
        problems = []
        combination = c["AB"] + c["AB'"] + c["A'B"] - c["A'B'"]
        if abs(combination - value) > 1e-12:
            problems.append(f"value {value!r} is not the correlator combination {combination!r}")
        if not abs(value) <= _TSIRELSON:
            problems.append(f"value {value!r} exceeds the Tsirelson bound")
        if expected is not None and abs(value - expected) > 1e-9:
            problems.append(f"value {value!r}, expected 2*sqrt(10)/pi = {expected!r}")
        return problems
    return check


def _check_sweep(path: Path, summary: dict) -> list:
    cols = _read_columns(path)
    clean = summary["clean_value"]
    corner = (cols["s"] == 0.0) & (cols["eps"] == 0.0)
    if corner.sum() != 1:
        return ["no (s=0, eps=0) cell"]
    cell = float(cols["chsh"][corner][0])
    if abs(cell - clean) > 1e-8:
        return [f"(s=0, eps=0) cell {cell!r} differs from clean_value {clean!r}"]
    return []


def _check_limit(path: Path, summary: dict) -> list:
    integral = summary["integral"]
    if abs(integral - 1.0) > 1e-6:
        return [f"integral {integral!r} is not 1 +- 1e-6"]
    return []


def _check_local_model(path: Path, summary: dict) -> list:
    worst = float(_read_columns(path)["abs_diff"].max())
    problems = []
    if not worst <= 1e-8:
        problems.append(f"artifact abs_diff reaches {worst!r} > 1e-8")
    if not summary["max_discrepancy"] <= 1e-8:
        problems.append(f"max_discrepancy {summary['max_discrepancy']!r} > 1e-8")
    return problems


def _check_channel(depol: float):
    def check(path: Path, summary: dict) -> list:
        # Depolarizing a projective measurement shrinks tau by (1 - lambda)
        # and keeps sigma^2 = 1, so s^2 = 1 / (1 - lambda)^2 - 1.
        s2 = json.loads(path.read_text())["s_squared"]
        expected = 1.0 / (1.0 - depol) ** 2 - 1.0
        if abs(s2 - expected) > 1e-12:
            return [f"s_squared {s2!r}, expected {expected!r}"]
        return []
    return check


def _exact_pmf(state_spec, alpha: float):
    import numpy as np
    from macrobell.finite_n import DickeSuperposition, pmf_finite

    kind, n, base = state_spec
    if kind == "w":
        state = DickeSuperposition.w_state(n)
    else:
        coeffs = np.array([2.0 / math.sqrt(10.0), 1.0 / math.sqrt(2.0),
                           1.0 / math.sqrt(10.0)], dtype=complex)
        state = DickeSuperposition(n_particles=n, base_level=base, coeffs=coeffs)
    povm, params = _sx("half" if alpha == 0.5 else "one")
    return pmf_finite(state, povm, params, alpha)


def _pearson(pmf_values, pmf_probs, samples):
    """Pearson chi-square of samples against a lattice PMF.

    Cells with expected count below 5 are pooled into one tail cell.
    Returns (chi2, dof, off_lattice) where off_lattice counts samples more
    than 1e-9 from every lattice point.
    """
    import numpy as np

    idx = np.clip(np.searchsorted(pmf_values, samples), 0, pmf_values.size - 1)
    left = np.maximum(idx - 1, 0)
    use_left = np.abs(pmf_values[left] - samples) < np.abs(pmf_values[idx] - samples)
    idx[use_left] = left[use_left]
    off_lattice = int(np.sum(np.abs(pmf_values[idx] - samples) > 1e-9))
    counts = np.bincount(idx, minlength=pmf_values.size)
    expected = pmf_probs * samples.size
    keep = expected >= 5.0
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    tail = float(samples.size - expected[keep].sum())
    if tail > 0:
        chi2 += (counts[~keep].sum() - tail) ** 2 / tail
    return chi2, int(keep.sum()), off_lattice


def _check_sample(state_spec, alpha: float):
    def check(path: Path, summary: dict) -> list:
        samples = _read_columns(path)["x"]
        pmf = _exact_pmf(state_spec, alpha)
        chi2, dof, off_lattice = _pearson(pmf.values, pmf.probs, samples)
        problems = []
        if off_lattice:
            problems.append(f"{off_lattice} sampled values lie off the exact lattice")
        bound = dof + 5.0 * math.sqrt(2.0 * dof)
        if not chi2 < bound:
            problems.append(f"chi2 {chi2:.1f} >= {bound:.1f} (dof {dof})")
        return problems
    return check


def _check_converge(ks_limit: float | None):
    def check(path: Path, summary: dict) -> list:
        cols = _read_columns(path)
        largest = int(cols["N"].argmax())
        ks = float(cols["ks"][largest])
        if not 0.0 <= ks <= (1.0 if ks_limit is None else ks_limit):
            return [f"KS distance {ks!r} at N={int(cols['N'][largest])} exceeds {ks_limit}"]
        return []
    return check


def check_invocation(inv: Invocation, workdir: Path, returncode: int,
                     stdout_text: str) -> tuple[str, list]:
    """Classify one finished invocation as 'ok', 'known_failure' or 'failed'."""
    if returncode != 0:
        if inv.known_failure and returncode == 2:
            return "known_failure", []
        return "failed", [f"exit code {returncode}"]
    lines = stdout_text.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
        problems = inv.check(workdir / inv.out, summary)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return ("failed" if problems else "ok"), problems
