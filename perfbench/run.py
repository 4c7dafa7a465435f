"""flowstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk-study --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` every measured step runs
in a fresh child process with no hooks, and the end-to-end metrics are
reported.  With ``--trace 1`` the workload runs in this one process with
the wrappers of ``tracing.py`` installed, and the per-layer metrics are
reported.  Every simulator result is checked against ``reference.json``.
The last line of standard output is the JSON result; the exit code is 0
only when every check passed.  ``README.md`` explains each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from workloads import SRC, WORK, BenchError, Checks, cache_records, check_study, \
    warm_rerun

SWEEP = Path(__file__).resolve().parent / "sweep.py"

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "sim_calls_per_s": "1/s",
    "sim_call_p50_s": "s",
    "cpu_s_per_call": "s",
    "peak_rss_mb": "MB",
}

#: fresh set-up processes per run; setup_s is their median
SETUP_PROBES = 3

CHILD_TIMEOUT = 170

_CLI = "import sys; from flowstab.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(args: list, cwd: Path) -> subprocess.Popen:
    # own process group, so a timed-out child is killed with its pool workers
    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                            text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)


@contextlib.contextmanager
def reaped(proc: subprocess.Popen):
    """Kill the child's process group if the caller leaves before it ended."""
    try:
        yield proc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def finish(proc: subprocess.Popen, what: str) -> str:
    """Wait for a child that must succeed; return its standard output."""
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} ran over {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_child(args: list, cwd: Path) -> tuple[float, str]:
    """Wall time and standard output of one child that must succeed."""
    start = time.perf_counter()
    with reaped(spawn(args, cwd)) as proc:
        out = finish(proc, " ".join(map(str, args[:3])))
    return time.perf_counter() - start, out


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {m.group(1) for m in
                    re.finditer(r"(/\S*openblas\S*\.so\S*)", fh.read())}
    except OSError:
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


# -- untraced runs ------------------------------------------------------------


def setup_time(config: Path) -> float:
    """Seconds from process start to a ready simulator, median of probes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with reaped(spawn([str(SWEEP), "--config", str(config)], config.parent)) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            finish(proc, "set-up probe")
        if line.strip() != "ready":
            raise BenchError(f"set-up probe printed {line!r}")
    return statistics.median(times)


def sweep(config: Path, germs: list, seconds: float, min_calls: int,
          max_calls: int) -> dict:
    germ_path = config.parent / "germs.json"
    germ_path.write_text(json.dumps(germs))
    _, out = run_child([str(SWEEP), "--config", str(config), "--germs", str(germ_path),
                        "--seconds", str(seconds), "--min-calls", str(min_calls),
                        "--max-calls", str(max_calls)], config.parent)
    return json.loads(out.strip().splitlines()[-1])


def desk_study(work: Path, seed: int, seconds: float, checks: Checks,
               reference: dict) -> dict:
    table = wl.reference_table("desk-study", reference)
    design, mc = wl.desk_germs(seed, reference)
    latency = wl.desk_latency_germs(seed, reference)
    split = len(latency) // 2
    start = time.perf_counter()
    # the per-call sweep is split around the study, so that its median is
    # not taken from one stretch of the run
    sweep_config = wl.write_config("desk-study", seed, work / "sweep")
    calls = sweep(sweep_config, latency[:split], 0.0, split, split)["calls"]

    study = work / "study"
    config = wl.write_config("desk-study", seed, study)
    outdir = study / "out"
    workers = str(nproc())
    cpu0, wall = children_cpu(), 0.0
    for phase in ("train", "assess"):
        wall += run_child(["-c", _CLI, phase, "--config", str(config),
                           "--workers", workers], study)[0]
    cpu = children_cpu() - cpu0
    check_study(checks, table, cache_records(outdir / "cache.jsonl"), design + mc)
    warm_rerun(checks, outdir, lambda: run_child(
        ["-c", _CLI, "assess", "--config", str(config), "--workers", workers], study))

    rest = latency[split:]
    calls += sweep(sweep_config, rest, seconds - (time.perf_counter() - start),
                   len(rest), 10**6)["calls"]
    checks.calls(table, calls)
    n_study = len(design) + len(mc)
    return {
        "study_s": wall,
        "sim_calls_per_s": n_study / wall,
        "sim_call_p50_s": statistics.median(c[-1] for c in calls),
        "cpu_s_per_call": cpu / n_study,
    }


def refine2(workload: str, work: Path, seed: int, seconds: float, checks: Checks,
            reference: dict) -> dict:
    config = wl.write_config(workload, seed, work / "sweep")
    result = sweep(config, wl.germ_order(workload, seed, reference), seconds,
                   wl.POOL_SIZE, 10**6)
    calls = result["calls"]
    checks.calls(wl.reference_table(workload, reference), calls)
    per_call = result["wall_s"] / len(calls)
    return {
        "study_s": per_call * wl.POOL_SIZE,
        "sim_calls_per_s": 1.0 / per_call,
        "sim_call_p50_s": statistics.median(c[-1] for c in calls),
        "cpu_s_per_call": result["cpu_s"] / len(calls),
    }


def untraced(workload: str, seed: int, seconds: float, work: Path,
             checks: Checks) -> dict:
    reference = wl.load_reference()
    metrics = {"setup_s": setup_time(wl.write_config(workload, seed, work / "probe"))}
    if workload == "desk-study":
        metrics.update(desk_study(work, seed, seconds, checks, reference))
    else:
        metrics.update(refine2(workload, work, seed, seconds, checks, reference))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flowstab benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowstab" / "__init__.py").is_file():
        print(f"error: no flowstab sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not wl.REFERENCE_PATH.is_file():
        print(f"error: {wl.REFERENCE_PATH} is missing", file=sys.stderr)
        return 2

    # a terminated run unwinds, so its children are killed and its files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    try:
        if args.trace:
            import traced
            metrics = traced.run(args.workload, args.seed, work, checks)
        else:
            metrics = untraced(args.workload, args.seed, args.seconds, work, checks)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in checks.failures:
        print(f"incorrect: {reason}", file=sys.stderr)
    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    print(f"{'failed_frac':<28} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
