"""One workload pass in a fresh process: import, write configs, run, check.

    python3 bench/worker.py --workload NAME --seed N --out DIR --spawned T
                            [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, ``import
wulffstab.cli`` and writing the configs. While the steps run, a
``SpeedControl`` samples how fast this CPU runs Python code. The pass
writes ``result.json`` in ``DIR``; ``run.py`` reads it.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

# On a shared host one CPU's speed for the same code wanders by tens of
# percent within minutes. A timer signal runs this fixed loop every
# CONTROL_PERIOD_S while the steps run, on the same CPU and interleaved with
# them, and records the loop's CPU time. Thread CPU time, so that a step
# holding the GIL in another thread does not count as a slow CPU.
CONTROL_PERIOD_S = 0.05
CONTROL_LOOP = 3000


def control_loop():
    s = 0
    for i in range(CONTROL_LOOP):
        s += i * i % 7
    return s


class SpeedControl:
    """Times ``control_loop`` on a timer while the ``with`` block runs."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t = time.thread_time()
        control_loop()
        self.samples.append(time.thread_time() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CONTROL_PERIOD_S, CONTROL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def blas_info(np):
    """BLAS library name and its thread count, as far as they can be read."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    name = deps.get("blas", {}).get("name", "unknown")
    threads = None
    try:
        import ctypes
        import glob
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*"))
        if libs:
            lib = ctypes.CDLL(libs[0])
            for fn in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    threads = int(getattr(lib, fn)())
                    break
    except OSError:
        pass
    return name, threads


def environment():
    import numpy as np
    import scipy
    blas, threads = blas_info(np)
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "WULFFSTAB_THREADS": os.environ.get("WULFFSTAB_THREADS", "unset")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import wulffstab.cli
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "")
    if not os.path.abspath(wulffstab.cli.__file__).startswith(src):
        sys.exit(f"wulffstab imported from {wulffstab.cli.__file__}, not {src}")
    import workloads

    steps = workloads.prepare(args.workload, args.seed, args.out)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            from catalog import PER_LAYER
            tracer = spans.Tracer()
            tracer.install()
        with SpeedControl() as control:
            cpu0, t0 = time.process_time(), time.perf_counter()
            outcomes = workloads.run_steps(steps, args.out)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        if tracer:
            tracer.remove()
        checks = workloads.check_steps(steps, outcomes, args.out)
        if tracer:
            left = tracer.leftover_wrappers()
            checks.append({"name": "trace.wrappers_removed",
                           "value": ";".join(left) or "none left",
                           "bound": "none left", "ok": not left})
            result["layers"] = spans.layer_metrics(
                tracer.spans, tracer.counters, list(PER_LAYER), wall)
            result["missing_targets"] = tracer.missing
            with open(os.path.join(args.out, "spans.json"), "w") as fh:
                json.dump(tracer.spans, fh)
        result.update(
            wall_s=wall, cpu_s=cpu, checks=checks,
            control_s=statistics.mean(control.samples),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            env=environment())
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
