"""The macrobell benchmark: end-to-end CLI timings and per-layer traces.

    python3 bench/run.py --workload exact-ladder|bell-noise|sampler \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs to be installed or built.

``--trace 0`` measures the end-to-end metrics. Each round runs the
workload's invocations back to back, each as a fresh
``python -m macrobell.cli`` process (a closed loop with one client), and
rounds repeat while another fits in ``--seconds``. Every output is checked
after its round, outside the timed region.

``--trace 1`` measures the per-layer metrics: the import time of each
module alone in a fresh process, then pairs of traced and untraced
in-process runs of the same invocations (see layers.py), repeated while
another pair fits in ``--seconds``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it hold the
environment record and per-invocation detail; the full report, and the
spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads
from layers import LAYERS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Every child gets this BLAS/OpenMP and MACROBELL_THREADS cap. One thread
#: keeps a single client's timings independent of whatever else shares the
#: two cores, and macrobell results do not depend on the thread count.
THREAD_CAP = 1

#: Fresh-process imports timed for setup_s; the median is reported.
SETUP_REPEATS = 5

#: Fresh-process imports per module timed for <module>.import_s.
IMPORT_REPEATS = 3

#: A run must finish within this many seconds, children included.
RUN_DEADLINE_S = 170.0

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["MACROBELL_THREADS"] = str(THREAD_CAP)
    for var in _BLAS_VARS:
        env[var] = str(THREAD_CAP)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def remaining(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def run_child(argv: list, stdout, stderr, deadline: Deadline) -> dict:
    """Run one child to completion; wall time, exit code and max RSS.

    The child is reaped with wait4 so its own resource usage is read; a
    timer kills it if it would overrun the run's deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(),
                            cwd=ROOT)
    killer = threading.Timer(deadline.remaining(), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "wall_s": end - start,
            "returncode": proc.returncode, "maxrss_mb": usage.ru_maxrss / 1024.0}


def import_seconds(modules: list, deadline: Deadline) -> tuple[float, float]:
    """Import ``modules`` in a fresh process: (process wall s, in-process import s)."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import macrobell.{m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=child_env(), cwd=ROOT, timeout=deadline.remaining())
    wall = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"importing {modules} failed: {child.stderr.strip()}")
    return wall, float(child.stdout)


def run_round(invs: list, workdir: Path, deadline: Deadline) -> list:
    calls = []
    for inv in invs:
        with open(workdir / f"{inv.out}.stdout", "w") as out, \
                open(workdir / f"{inv.out}.stderr", "w") as err:
            calls.append(run_child([sys.executable, "-m", "macrobell.cli", *inv.argv(workdir)],
                                   out, err, deadline))
    return calls


def check_outputs(invs: list, workdir: Path, returncodes: list) -> list:
    """Check every invocation's output; one record per invocation."""
    records = []
    for inv, code in zip(invs, returncodes):
        stdout = (workdir / f"{inv.out}.stdout").read_text()
        status, problems = workloads.check_invocation(inv, workdir, code, stdout)
        if status == "known_failure":
            stderr = (workdir / f"{inv.out}.stderr").read_text().strip()
            problems = [stderr.splitlines()[-1] if stderr else "exit code 2"]
        records.append({"name": inv.name, "status": status, "problems": problems})
        for name in (inv.out, inv.out + ".meta.json"):
            (workdir / name).unlink(missing_ok=True)
    return records


def end_to_end(workload: str, seed: int, seconds: int, workdir: Path,
               deadline: Deadline) -> dict:
    invs = workloads.invocations(workload, seed)
    modules = ["cli", *workloads.engine_modules(invs)]
    setup = [import_seconds(modules, deadline)[0] for _ in range(SETUP_REPEATS)]

    rounds, records, measured = [], [], 0.0
    while True:
        calls = run_round(invs, workdir, deadline)
        measured += calls[-1]["end"] - calls[0]["start"]
        rounds.append(calls)
        records.append(check_outputs(invs, workdir, [c["returncode"] for c in calls]))
        if measured + measured / len(rounds) > seconds:
            break

    all_calls = [c for calls in rounds for c in calls]
    metrics = {
        "job_s": statistics.median(c[-1]["end"] - c[0]["start"] for c in rounds),
        "call_s.p50": statistics.median(c["wall_s"] for c in all_calls),
        "call_s.max": statistics.median(max(c["wall_s"] for c in calls) for calls in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c["maxrss_mb"] for c in all_calls),
    }
    per_call = {inv.name: statistics.median(calls[i]["wall_s"] for calls in rounds)
                for i, inv in enumerate(invs)}
    return {"metrics": metrics, "records": records, "rounds": len(rounds),
            "calls": len(all_calls), "setup_samples_s": setup,
            "call_median_s": per_call, "modules_imported": modules}


def run_worker(workload: str, seed: int, workdir: Path, trace: bool,
               deadline: Deadline, tiny: bool = False) -> dict:
    result = workdir / f"worker-trace{int(trace)}.json"
    argv = [sys.executable, str(ROOT / "bench" / "layers.py"),
            "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
            "--result", str(result), "--trace", str(int(trace))]
    with open(workdir / "worker.log", "a") as log:
        child = run_child(argv + (["--tiny"] if tiny else []), log, log, deadline)
    if child["returncode"] != 0:
        raise RuntimeError(f"in-process worker failed with exit code {child['returncode']}; "
                           f"see {workdir / 'worker.log'}")
    return json.loads(result.read_text())


def per_layer(workload: str, seed: int, seconds: int, workdir: Path,
              deadline: Deadline) -> dict:
    """Import times, then traced and untraced in-process passes.

    The pair of passes repeats while another fits in ``seconds`` (import
    timing included). Each metric is the median over the pairs; the spans
    of every traced pass are kept.
    """
    invs = workloads.invocations(workload, seed)
    start = time.perf_counter()
    metrics = {}
    for layer in LAYERS:
        imports = [import_seconds([layer], deadline)[1] for _ in range(IMPORT_REPEATS)]
        metrics[f"{layer}.import_s"] = statistics.median(imports)

    passes, records = [], []
    loop_start = time.perf_counter()
    while True:
        traced = run_worker(workload, seed, workdir, True, deadline)
        records.append(check_outputs(invs, workdir, [op["returncode"] for op in traced["ops"]]))
        plain = run_worker(workload, seed, workdir, False, deadline)
        records.append(check_outputs(invs, workdir, [op["returncode"] for op in plain["ops"]]))
        passes.append((traced, plain))
        now = time.perf_counter()
        if now - start + (now - loop_start) / len(passes) > seconds:
            break

    samples = [layer_metrics(traced["spans"], traced["ops"]) for traced, _ in passes]
    metrics.update({name: statistics.median(s[name] for s in samples) for name in samples[0]})
    metrics["trace.overhead_ratio"] = statistics.median(
        traced["loop_s"] / plain["loop_s"] for traced, plain in passes)
    self_time = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    return {"metrics": metrics, "records": records, "passes": len(passes),
            "self_time_s": dict(sorted(self_time.items(), key=lambda kv: -kv[1])),
            "spans": [traced["spans"] for traced, _ in passes],
            "traced_loop_s": [traced["loop_s"] for traced, _ in passes],
            "plain_loop_s": [plain["loop_s"] for _, plain in passes]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_cap": THREAD_CAP,
        "commit": git_commit(),
    }


def summarize(records: list) -> tuple[int, int, int]:
    """(attempted, failed, known failures) over all rounds."""
    flat = [r for rnd in records for r in rnd]
    failed = sum(1 for r in flat if r["status"] == "failed")
    known = sum(1 for r in flat if r["status"] == "known_failure")
    return len(flat), failed, known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="macrobell benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "macrobell" / "cli.py").is_file():
        sys.stderr.write(f"no macrobell sources at {SRC}; run from a source checkout\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))

    deadline = Deadline(RUN_DEADLINE_S)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    try:
        if args.trace:
            report = per_layer(args.workload, args.seed, args.seconds, workdir, deadline)
        else:
            report = end_to_end(args.workload, args.seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, known = summarize(report["records"])
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in report.pop("metrics").items()}
    if args.trace:
        spans = report.pop("spans")
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans))
    report.update(environment=env, metrics=metrics, attempted=attempted, failed=failed,
                  known_failures=known, ops_failed_ratio=(failed + known) / attempted)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))

    for rnd_index, rnd in enumerate(report["records"]):
        for r in rnd:
            if r["status"] != "ok":
                print(json.dumps({"round": rnd_index, **r}))
    print(json.dumps({k: report[k] for k in report
                      if k not in ("records", "environment", "metrics")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
