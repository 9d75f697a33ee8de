"""One benchmark process: build a workload's inputs, warm up, time operations.

``run.py`` starts this in a fresh interpreter for each measurement, so import
time counts towards set-up and the peak resident set belongs to one
workload. Modes:

- ``setup``: build inputs, run the untimed warm-up operation, exit.
- ``measure``: as ``setup``, then run operations back to back for
  ``--seconds`` with tracing off.
- ``trace``: as ``setup``, then half the time untraced and half traced over
  the same operation indices, and write the spans to ``spans.json``.

The worker prints ``READY`` on standard output after the warm-up, which is
where ``run.py`` stops the set-up clock, then times the calibration kernel
(``calibrate.py``) once for the set-up's normalisation and once after every
operation. It writes its result as ``result.json`` in ``--work``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

READY = "READY"


def one_op(wl, index: int, tracer=None) -> list:
    """Run and check operation ``index``; return [seconds, error text or None].

    Only the operation is timed, not its output check. Any exception is the
    operation's failure and is recorded, so the loop keeps going.
    """
    start = time.perf_counter()
    try:
        with tracer.operation(index) if tracer else contextlib.nullcontext():
            out = wl.run(index)
    except Exception:
        return [time.perf_counter() - start, traceback.format_exc()]
    seconds = time.perf_counter() - start
    try:
        wl.check(index, out)
    except Exception:
        return [seconds, traceback.format_exc()]
    return [seconds, None]


def timed_loop(wl, first_index: int, seconds: float, tracer=None) -> list:
    """Closed loop: start the next operation when the previous one ends.

    Returns one [wall seconds, kernel seconds, error] record per operation:
    the kernel seconds are the mean of the calibration kernel timed just
    before and just after the operation, and the error is cut to its last
    line.
    """
    import calibrate

    ops = []
    deadline = time.perf_counter() + seconds
    index = first_index
    before = calibrate.kernel()
    while True:
        wall, error = one_op(wl, index, tracer)
        after = calibrate.kernel()
        if error is not None:
            if all(e is None for _, _, e in ops):
                print(f"operation {index} failed:\n{error}", file=sys.stderr)
            error = error.strip().splitlines()[-1]
        ops.append([wall, (before + after) / 2.0, error])
        before = after
        index += 1
        if time.perf_counter() >= deadline:
            return ops


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    # Imported here, not at the top: run.py imports this module for READY.
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "extctrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "extctrl_threads": os.environ.get("EXTCTRL_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "extctrl_commit": _git_commit(),
        "extctrl_src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.work)
    warmup_error = one_op(wl, 0)[1]
    print(READY, flush=True)
    import calibrate

    result = {"warmup_error": warmup_error, "fits_per_op": wl.fits_per_op,
              "setup_kernel_s": calibrate.kernel()}
    if args.mode == "measure":
        result.update(
            ops=timed_loop(wl, 1, args.seconds),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            env=environment(),
        )
    elif args.mode == "trace":
        import tracing

        untraced = timed_loop(wl, 1, args.seconds / 2)
        # Taken before the traced half, which repeats the same operations.
        result["info"] = wl.info()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = timed_loop(wl, 1, args.seconds / 2, tracer)
        tracer.dump(args.work / "spans.json")
        result.update(untraced_ops=untraced, ops=untraced + traced, traced_ops=traced,
                      layers=wl.layers, env=environment())
    if "info" not in result:
        result["info"] = wl.info()
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
