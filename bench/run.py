"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; wulffstab is imported from its ``src/``.
Every pass of a workload is one fresh ``worker.py`` process. With
``--trace 0`` the run first starts ``SETUP_PROBES`` processes that only
import wulffstab and write the configs, then runs passes until ``S``
seconds have gone (at least one), and reports the end-to-end metrics as
medians. With ``--trace 1`` it runs one untraced and one traced pass, checks
that both wrote byte-identical CSVs, and reports the per-layer metrics.
The last line of standard output is the result as JSON. Outputs go to
``.bench_build/<workload>-seed<N>-trace<0|1>/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 2
# wall_norm_s is a pass's wall time at the CPU speed at which worker.py's
# control loop takes CONTROL_REF_S: wall_s * CONTROL_REF_S / control_s,
# where control_s is the loop's mean time sampled during that pass. The
# constant is about the loop's time on the machine of the readings in
# README.md, so there wall_norm_s reads close to wall_s.
CONTROL_REF_S = 3.0e-4
RUN_BUDGET_S = 160.0   # a run must end within 180 s


class WorkerFailed(Exception):
    """A worker process crashed, timed out or wrote no result."""


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    """WULFFSTAB_THREADS unset, BLAS threads capped at nproc, src first."""
    env = dict(os.environ)
    env.pop("WULFFSTAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(env.get(var, cap))
        except ValueError:
            n = cap
        env[var] = str(max(1, min(n, cap)))
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git checkout)"


def run_worker(workload, seed, out, env, deadline, trace=False,
               setup_only=False):
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(out / "worker.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{out.name} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (out / "worker.log").read_text()[-2000:]
        raise WorkerFailed(f"{out.name} exited with {code}:\n{tail}")
    return json.loads((out / "result.json").read_text())


def csv_differences(a, b):
    """Relative paths of CSVs that differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*.csv")}
    files_b = {p.relative_to(b) for p in b.rglob("*.csv")}
    return sorted(str(p) for p in files_a ^ files_b) + sorted(
        str(p) for p in files_a & files_b
        if (a / p).read_bytes() != (b / p).read_bytes())


def untraced(args, run_dir, env, deadline):
    setups = [run_worker(args.workload, args.seed, run_dir / f"setup{i}", env,
                         deadline, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(run_worker(args.workload, args.seed,
                                 run_dir / f"pass{len(passes)}", env, deadline))
        now = time.monotonic()
        if now - start >= args.seconds or deadline - now < 1.5 * (now - t):
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_norm_s": statistics.median(
            p["wall_s"] * CONTROL_REF_S / p["control_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"wall_norm_s": len(passes), "setup_s": len(setups),
               "peak_rss_mb": len(passes)}
    print("unscaled " + json.dumps({
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "control_s": statistics.median(p["control_s"] for p in passes)}))
    checks = [c for p in passes for c in p["checks"]]
    return metrics, samples, checks, passes[0]["env"]


def traced(args, run_dir, env, deadline):
    plain = run_worker(args.workload, args.seed, run_dir / "untraced", env,
                       deadline)
    spanned = run_worker(args.workload, args.seed, run_dir / "traced", env,
                         deadline, trace=True)
    if spanned["missing_targets"]:
        print("not traced (gone from wulffstab): "
              + ", ".join(spanned["missing_targets"]), file=sys.stderr)
    diff = csv_differences(run_dir / "untraced", run_dir / "traced")
    checks = plain["checks"] + spanned["checks"] + [
        {"name": "trace.csv_identical", "value": ";".join(diff) or "identical",
         "bound": "identical", "ok": not diff}]
    metrics = dict(spanned["layers"])
    metrics["process.cpu_s"] = plain["cpu_s"]
    metrics["process.wall_s"] = plain["wall_s"]
    metrics["process.control_s"] = plain["control_s"]
    metrics["trace.overhead_ratio"] = spanned["wall_s"] / plain["wall_s"]
    return metrics, {"traced passes": 1, "untraced passes": 1}, checks, plain["env"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # on SIGTERM, unwind through run_worker so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    if not (SRC / "wulffstab" / "cli.py").is_file():
        sys.exit(f"error: no wulffstab source under {SRC}")

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = BUILD / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = worker_env()
    measure = traced if args.trace else untraced
    try:
        metrics, samples, checks, worker_info = measure(args, run_dir, env,
                                                        deadline)
    except WorkerFailed as exc:
        sys.exit(f"error: {exc}")

    info = {"nproc": nproc(), **worker_info, "git_commit": git_commit(),
            "seed": args.seed, "workload": args.workload}
    (run_dir / "env.json").write_text(json.dumps(info, indent=1) + "\n")
    print("environment " + json.dumps(info))
    print("samples " + json.dumps(samples))
    for c in checks:
        if not c["ok"]:
            print(f"FAILED {c['name']}: value {c['value']}, bound {c['bound']}",
                  file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(not c["ok"] for c in checks)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
