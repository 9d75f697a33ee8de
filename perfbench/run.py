"""extctrl benchmark: three batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``. Each
measurement runs in a fresh worker process (``worker.py``). With ``--trace
0`` the benchmark times operations with tracing off and reports the
``end_to_end`` metrics of BENCHMARK.json; set-up is measured in
``SETUP_RUNS`` fresh processes and the median reported. With ``--trace 1``
one worker times half the run untraced and half traced, and the benchmark
reports the ``per_layer`` metrics computed from the spans. Times are
normalised by the calibration kernel timed next to them (``calibrate.py``);
the raw wall times are recorded too. The last line of standard output is
the JSON result; the line before it records the operation count, failures,
the time quartiles and tail, and the environment. WORKLOADS.md describes
the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))
# One BLAS thread, here (for the calibration kernel) and in every worker:
# extctrl's matrices are at most n x 5, too small to gain from a second
# thread, and a second thread makes times depend on whether the other vCPU
# of a shared host is free.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import calibrate  # noqa: E402
import tracing  # noqa: E402
from worker import READY  # noqa: E402

WORKLOADS = ("coverage-binary", "plan-survival-50k", "plan-aggregate-boot")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # the whole run, inside the 180 s a run may take
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metric names that are not a traced span name plus a suffix.
ALIASES = {
    "inference.replicates": "inference.bootstrap_ci.replicates",
    "inference.failed_replicates": "inference.bootstrap_ci.failed_replicates",
}


class RunFailed(Exception):
    """No result: a worker crashed or timed out, or a declared layer went untraced."""


def worker_env() -> dict:
    env = dict(os.environ)
    # Serial bootstrap: BootstrapConfig.threads stays 0 and this stays unset.
    env.pop("EXTCTRL_THREADS", None)
    return env


def spawn(mode: str, args, work: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (normalised seconds from start to READY, its result).

    The set-up's kernel time is the mean of the kernel timed here just before
    the worker starts and by the worker just after READY.
    """
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--work", str(work)]
    kernel_before = calibrate.kernel()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    setup = None
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == READY:
                setup = time.perf_counter() - start
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None:
        raise RunFailed(f"{mode} worker exited with {proc.returncode}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["setup_wall_s"] = setup
    kernel = (kernel_before + result["setup_kernel_s"]) / 2.0
    return setup * calibrate.REF_S / kernel, result


def normalised(op) -> float:
    wall, kernel, _ = op
    return wall * calibrate.REF_S / kernel


def passed(ops: list) -> list:
    """Normalised seconds of the operations that passed their checks.

    A failed operation may have stopped part way, so its time is not the
    operation's cost.
    """
    return [normalised(op) for op in ops if op[2] is None]


def tail(durations: list) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(durations)
            return {"percentile": p, "value": ordered[math.ceil(n * p / 100.0) - 1],
                    "samples": n}
    return None


def quartiles(durations: list) -> dict:
    q = durations * 3
    if len(durations) > 1:
        q = statistics.quantiles(durations, n=4, method="inclusive")
    return {"min": min(durations), "p25": q[0], "p50": q[1], "p75": q[2], "max": max(durations),
            "unit": "s"}


def measure(args, work: Path, deadline: float):
    setups, results = [], []
    for k in range(SETUP_RUNS):
        setup, result = spawn("measure" if k == 0 else "setup", args, work / f"w{k}", deadline)
        setups.append(setup)
        results.append(result)
    main = results[0]
    times = passed(main["ops"])
    if not times:
        return None, results, {}
    op_s = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": op_s,
        "subject_fits_per_s": main["fits_per_op"] / op_s,
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
    }
    extra = {"setup_samples_s": setups,
             "setup_wall_samples_s": [r["setup_wall_s"] for r in results]}
    return metrics, results, extra


def trace(args, work: Path, deadline: float):
    _, result = spawn("trace", args, work / "w0", deadline)
    untraced, traced = passed(result["untraced_ops"]), passed(result["traced_ops"])
    if not untraced or not traced:
        return None, [result], {}
    spans = json.loads((work / "w0" / "spans.json").read_text(encoding="utf-8"))
    metrics = tracing.summarize(spans)
    missing = [m for m in result["layers"] if not metrics.get(f"layer.{m}.calls")]
    if missing:
        raise RunFailed(f"no traced call into the workload's layers {missing}")

    for name, source in ALIASES.items():
        metrics[name] = metrics.get(source, 0.0)
    replicates = metrics["inference.replicates"]
    metrics["inference.refit_yield"] = (
        (replicates - metrics["inference.failed_replicates"]) / replicates if replicates else 0.0)
    load_s = metrics.get("dataset.load_dataset.incl_s", 0.0)
    metrics["dataset.load_dataset.rows_per_s"] = (
        metrics["dataset.load_dataset.rows"] / load_s if load_s else 0.0)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, [result], {"untraced_op_s.p50": untraced_s, "traced_op_s.p50": traced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (CHECKOUT / "src" / "extctrl" / "__init__.py").is_file():
        print(f"error: no extctrl sources under {CHECKOUT / 'src'}; "
              "run from the root of an extctrl checkout", file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, results, extra = (trace if args.trace else measure)(args, work, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if HERE.joinpath(".work").is_dir() and not any(HERE.joinpath(".work").iterdir()):
            HERE.joinpath(".work").rmdir()

    ops = results[0]["ops"]
    untraced = results[0].get("untraced_ops", ops)
    errors = [error for _, _, error in ops if error is not None]
    warmup_errors = [r["warmup_error"] for r in results if r["warmup_error"]]
    for error in warmup_errors:
        print(f"warm-up operation failed:\n{error}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed_frac": len(errors) / len(ops),
        "errors": errors[:3],
        "op_s": quartiles([normalised(op) for op in untraced]),
        "tail_op_s": tail([normalised(op) for op in untraced]),
        "wall_op_s": quartiles([wall for wall, _, _ in untraced]),
        "kernel_s": quartiles([kernel for _, kernel, _ in ops]),
        **extra,
        "workload_info": results[0]["info"],
        "env": results[0]["env"],
    }
    print(json.dumps(record))
    if metrics is None:
        print("error: no operation passed its checks, so there is no time to report",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not errors and not warmup_errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
