"""Smoke test for the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 perfbench/smoke.py

It shrinks every workload (one build, two crucible schedules, ten sends
per churn outage), runs each untraced and one traced, and checks that

* every metric ``BENCHMARK.json`` names is printed, by name and with its
  unit, both in the human-readable block and in the final JSON line;
* every op passes its output check (``error_ratio`` 0) at these sizes;
* the output check can fail: a deliberately wrong recorded digest drives
  ``error_ratio`` above 0 and ``correct`` to false.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import io
import json
import re
import sys

import run

SEED = 1009  # the held-out seed: no recorded digest applies at tiny sizes


def shrink_workloads(workloads) -> None:
    workloads.CHURN_PERIOD = 10
    workloads.Converge.min_ops = 1
    workloads.Crucible.min_ops = workloads.Crucible.quantum = 2


def run_and_print(name: str, trace: bool, recorded_digest=None):
    result = run.run_benchmark(
        name, SEED, 0.0, trace, setup_reps=1, recorded_digest=recorded_digest
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result)
    return out.getvalue()


def missing_metrics(text: str, metrics) -> list:
    """Metrics absent from the printed block or the final JSON line."""
    final = json.loads(text.strip().splitlines()[-1])
    missing = []
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        line = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                          re.MULTILINE)
        printed = final["metrics"].get(name)
        if not line.search(text) or printed is None or printed["unit"] != unit:
            missing.append(name)
    return missing


def error_ratio(text: str) -> float:
    final = json.loads(text.strip().splitlines()[-1])
    return final["failed"] / final["attempted"]


def main() -> int:
    if not run.SRC.joinpath("repro").is_dir():
        print("smoke: no program sources", file=sys.stderr)
        return 1
    sys.path.insert(0, str(run.SRC))
    import e2e_workloads

    shrink_workloads(e2e_workloads)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    # Every defined workload, including ones BENCHMARK.json leaves out.
    for name in e2e_workloads.WORKLOADS:
        text = run_and_print(name, trace=False)
        missing = missing_metrics(text, bench["end_to_end"])
        check(not missing, f"{name}: end-to-end metrics printed {missing}")
        check(error_ratio(text) == 0.0, f"{name}: error_ratio is 0")

    text = run_and_print("converge", trace=True)
    missing = missing_metrics(text, bench["per_layer"])
    check(not missing, f"converge traced: per-layer metrics printed {missing}")
    check(error_ratio(text) == 0.0,
          "converge traced: error_ratio is 0 (traced digest equals untraced)")

    text = run_and_print("converge", trace=False, recorded_digest="0" * 16)
    check(error_ratio(text) > 0.0
          and json.loads(text.strip().splitlines()[-1])["correct"] is False,
          "converge with a wrong recorded digest: error_ratio above 0")

    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
