"""End-to-end benchmark of the SCION stack, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.json`` for what each loads and bypasses):
``converge``, ``steady``, ``churn`` and ``crucible``; ``BENCHMARK.json``
gates all but ``churn``, whose run-to-run spread on a shared host is too
wide for a bound.  Every workload is a closed loop with one client and no
worker threads.

``--trace 0`` sets the workload up three times and warms it up once
(``setup_s`` is the import time plus the median set-up plus the warm-up),
then times ops for ``--seconds`` seconds and reports the end-to-end
metrics over the run's fastest repetitions (see ``op_metrics``).  ``--trace 1`` runs the workload twice for
half the time each, untraced and then traced, reports the per-layer
metrics and the tracing overhead, prints the per-layer table, writes the
spans to ``.perfbench_out/`` and requires both runs' output digests to be
equal.  Every op's output is checked; at the recorded default seed the
output digest must also match ``workloads.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
#: Op id of the run's final op (the crucible shrink); setup is -1.
FINAL_OP = -2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_config() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_ops(workload, seconds: float, tracer=None) -> dict:
    """The closed loop: time ops until ``seconds`` of op time have passed
    (and at least ``min_ops`` whole rounds ran), then the final op."""
    clock = time.perf_counter
    latencies, lines = [], []
    failed = 0
    timed = 0.0
    i = 0

    def one(index: int, args) -> None:
        # index is the op's position, or FINAL_OP for the final op.
        nonlocal failed, timed
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            result = workload.op(args)
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, exc
        else:
            error = None
        elapsed = clock() - start
        if tracer is not None:
            tracer.op = None
        latencies.append(elapsed)
        timed += elapsed
        if error is not None:
            ok, line = False, f"{index}|error|{type(error).__name__}: {error}"
        else:
            ok, line = workload.inspect(index, args, result)
        failed += not ok
        if index < workload.digest_ops or index == FINAL_OP:
            lines.append(line)

    while (
        i < workload.min_ops or timed < seconds or i % workload.quantum
    ):
        one(i, workload.prepare(i))
        i += 1
    final = workload.final_args()
    if final is not None:
        one(FINAL_OP, final)
    return {
        "latencies": latencies,
        "timed_s": timed,
        "failed": failed,
        "digest_lines": lines,
    }


def setup_workload(cls, seed: int, reps: int):
    """Set the workload up ``reps`` times, then warm it up once; returns
    the workload and its set-up time: median set-up plus warm-up."""
    workload = cls(seed)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm_up()
    return workload, statistics.median(times) + time.perf_counter() - start


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_reps: int = SETUP_REPS,
    recorded_digest=None,
) -> dict:
    """Run one workload; ``recorded_digest`` overrides the recorded one."""
    import e2e_workloads

    config = load_config()
    cls = e2e_workloads.WORKLOADS[name]
    if recorded_digest is None and seed == config["default_seed"]:
        recorded_digest = config["workloads"][name]["digest"]
    imported_s = time.perf_counter() - _START
    info = {"workload": name, "seed": seed}

    if not trace:
        workload, setup_s = setup_workload(cls, seed, setup_reps)
        run = run_ops(workload, seconds)
        metrics = {
            "setup_s": imported_s + setup_s,
            **op_metrics(run["latencies"], workload.rep_ops,
                         workload.rep_slots),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # Printed, not gated: on a shared host its run-to-run spread
        # exceeds any bound the benchmark may set.
        info["latency_p99_ms"] = metrics.pop("latency_p99_ms")
        units = END_TO_END_UNITS
        runs = [run]
    else:
        import layer_trace

        workload, _ = setup_workload(cls, seed, 1)
        untraced = run_ops(workload, seconds / 2.0)
        del workload
        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)
        try:
            workload, _ = setup_workload(cls, seed, 1)
            tracer.op = None
            traced = run_ops(workload, seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        untraced_tput, traced_tput = (
            len(r["latencies"]) / r["timed_s"] for r in runs
        )
        tracer.counts["registry.version_bumps"] += workload.version_bumps
        metrics = tracer.per_layer_metrics(untraced_tput / traced_tput)
        units = layer_trace.PER_LAYER_METRICS
        info["table"] = tracer.table(traced["timed_s"])
        info["shares"] = tracer.layer_shares(traced["timed_s"])
        info["throughputs"] = (untraced_tput, traced_tput)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.tsv"
        tracer.write_spans(spans_path)
        info["spans"] = (len(tracer.spans), spans_path)

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = [e2e_workloads.digest(r["digest_lines"]) for r in runs]
    digest_ok = len(set(digests)) == 1 and (
        recorded_digest is None or digests[0] == recorded_digest
    )
    if not digest_ok:
        # The ops the digest covers did not produce the expected output.
        covered = workload.digest_ops + (workload.final_args() is not None)
        failed = min(attempted, failed + covered * len(runs))
    info.update(digests=digests, recorded_digest=recorded_digest)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
        "info": info,
    }


def op_metrics(latencies, rep_ops, rep_slots=1) -> dict:
    """Throughput and p50/p99 latency over the best repetitions.

    With ``rep_ops`` set, the ops are cut into repetitions of about that
    many consecutive ops.  Repetition ``k`` runs the same inputs as
    repetition ``k + rep_slots`` (churn repeats one outage permutation), so
    for each of the ``rep_slots`` positions only the fastest repetition is
    kept, and the statistics are computed over the kept ops.  On a host
    whose speed drifts with its neighbours' load, the fastest repetition
    is the steadiest estimate of the program's own cost.  Without
    ``rep_ops`` the whole run counts.
    """
    n = len(latencies)
    kept = latencies
    if rep_ops:
        count = max(1, n // rep_ops)
        best = {}
        for k in range(count):
            part = latencies[k * n // count:(k + 1) * n // count]
            held = best.get(k % rep_slots)
            if held is None or sum(part) / len(part) < sum(held) / len(held):
                best[k % rep_slots] = part
        kept = [x for part in best.values() for x in part]
    ms = sorted(x * 1000.0 for x in kept)
    return {
        "throughput_ops_s": len(kept) / sum(kept),
        "latency_p50_ms": statistics.median(ms),
        "latency_p99_ms": percentile(ms, 0.99),
    }


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    pos = (len(sorted_values) - 1) * q
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (
        pos - low
    )


def report(result: dict) -> None:
    """Human-readable block, then the one-line JSON result."""
    info = result["info"]
    print(f"workload {info['workload']}  seed {info['seed']}")
    if "table" in info:
        print(info["table"])
        print("layer shares of traced op time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(info["shares"].items(), key=lambda kv: -kv[1])
        ))
        untraced, traced = info["throughputs"]
        print(f"tracing overhead: untraced {untraced:.4f} ops/s, "
              f"traced {traced:.4f} ops/s")
        print(f"spans: {info['spans'][0]} written to {info['spans'][1]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6f} {metric['unit']}")
    if "latency_p99_ms" in info:
        print(f"  {'(ungated) latency_p99_ms':<34} "
              f"{info['latency_p99_ms']:>14.6f} ms")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'error_ratio':<34} {ratio:>14.6f} fraction")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    recorded = info["recorded_digest"] or "none at this seed"
    print(f"  output digest {' / '.join(info['digests'])} "
          f"(recorded: {recorded})")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import e2e_workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in e2e_workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(e2e_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report(run_benchmark(args.workload, args.seed, args.seconds,
                         bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
