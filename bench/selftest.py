"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For each workload, runs its invocations once at a tiny size, both as
fresh processes and in the traced in-process worker. It requires every
output check to pass, except the documented known failures, and requires
the trace to yield every per-layer metric named in BENCHMARK.json. It then
corrupts a ``dist`` artifact to mass 1.01 and requires that to be reported
as a failed op. Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from layers import layer_metrics


def expect(condition: bool, message: str, failures: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    if not (run.SRC / "macrobell" / "cli.py").is_file():
        sys.stderr.write(f"no macrobell sources at {run.SRC}\n")
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # per_layer() adds the import times and the overhead ratio itself
    traced_names = {m["name"] for m in spec["per_layer"]
                    if not m["name"].endswith(".import_s")
                    and m["name"] != "trace.overhead_ratio"}
    deadline = run.Deadline(run.RUN_DEADLINE_S * 3)
    failures: list = []
    run.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            invs = workloads.invocations(workload, seed=1, tiny=True)
            calls = run.run_round(invs, workdir, deadline)
            records = run.check_outputs(invs, workdir, [c["returncode"] for c in calls])
            for inv, record in zip(invs, records):
                allowed = ("ok", "known_failure") if inv.known_failure else ("ok",)
                expect(record["status"] in allowed,
                       f"{workload}: {inv.name} is {record['status']} {record['problems']}",
                       failures)

            result = run.run_worker(workload, 1, workdir, True, deadline, tiny=True)
            records = run.check_outputs(invs, workdir,
                                        [op["returncode"] for op in result["ops"]])
            expect(all(r["status"] != "failed" for r in records),
                   f"{workload}: in-process outputs pass their checks", failures)
            metrics = layer_metrics(result["spans"], result["ops"])
            expect(set(metrics) == traced_names,
                   f"{workload}: trace yields exactly the per-layer metrics "
                   f"(missing {sorted(traced_names - set(metrics))}, "
                   f"extra {sorted(set(metrics) - traced_names)})", failures)

        inv = next(i for i in workloads.invocations("exact-ladder", 1, tiny=True)
                   if i.name == "dist.w")
        calls = run.run_round([inv], workdir, deadline)
        path = workdir / inv.out
        header, *rows = path.read_text().splitlines()
        scaled = [f"{x},{float(p) * 1.01!r}" for x, p in (r.split(",") for r in rows)]
        path.write_text("\n".join([header, *scaled]) + "\n")
        (record,) = run.check_outputs([inv], workdir, [calls[0]["returncode"]])
        expect(record["status"] == "failed" and "mass" in record["problems"][0],
               f"a dist artifact with mass 1.01 is a failed op: {record['problems']}",
               failures)
        attempted, failed, _ = run.summarize([[record]])
        expect((attempted, failed) == (1, 1), "the failed op is counted", failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
