"""The traced run: the workload in one process, hooks installed.

It runs the workload's fixed traced part: the ``POOL_SIZE`` germs of the
seed on ``step-refine2``, three per-call germs on ``desk-study``,
each timed once without and once with hooks (the tracing overhead is the
ratio of the two sums); on ``desk-study`` then ``train`` and a cold
``assess`` through ``cli.main`` at ``--workers 1``, followed by an unhooked
warm ``assess``.  The traced part does not depend on ``--seconds``, so its
counts repeat exactly per seed.  Spans are kept in memory and written to
``.perfbench_work/traces/`` at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import workloads as wl
from workloads import SRC, WORK, BenchError, Checks, cache_records, check_study, \
    warm_rerun
from tracing import Tracer

#: germs timed with and without hooks on desk-study
DESK_OVERHEAD_CALLS = 3

PER_CALL_S = ["viscosity.evaluate", "assembly.operators", "steady.factor",
              "eigen.pencil", "eigen.factor", "eigen.arpack"]


def _cli(main, *args) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(args))
    if code != 0:
        raise BenchError(f"flowstab {args[0]} exited {code}")
    return time.perf_counter() - start


def run(workload: str, seed: int, work: Path, checks: Checks) -> dict:
    sys.path.insert(0, str(SRC))
    from flowstab import SampleSet, build_simulator, load_config, monte_carlo
    from flowstab.cli import main as cli_main

    reference = wl.load_reference()
    table = wl.reference_table(workload, reference)
    config_path = wl.write_config(workload, seed, work / "traced")
    config = load_config(config_path)
    tracer = Tracer()

    tracer.install()
    sim = build_simulator(config, wl.COV, use_cache=False)
    tracer.uninstall()

    def call(xi) -> float:
        start = time.perf_counter()
        record = monte_carlo(sim, SampleSet([xi], 0, config.distribution)).records[0]
        wall = time.perf_counter() - start
        checks.add(wl.check(table, xi, record.lam_re, record.lam_im, record.failed))
        return wall

    if workload == "desk-study":
        design, mc = wl.desk_germs(seed, reference)
        germs = mc[:DESK_OVERHEAD_CALLS]
    else:
        germs = wl.germ_order(workload, seed, reference)
    # every germ without and with hooks, in alternating order after one
    # unhooked warm-up call, so that neither side is the cold one
    call(germs[0])
    plain = hooked = 0.0
    for i, xi in enumerate(germs):
        for with_hooks in ((False, True) if i % 2 == 0 else (True, False)):
            if with_hooks:
                tracer.install()
                hooked += call(xi)
                tracer.uninstall()
            else:
                plain += call(xi)
    extra = {"trace.overhead_ratio": hooked / plain}
    computed = len(germs)

    if workload == "desk-study":
        outdir = config.outdir
        args = ("--config", str(config_path), "--workers", "1")
        tracer.install()
        extra["cli.train_s"] = _cli(cli_main, "train", *args)
        extra["cli.assess_s"] = _cli(cli_main, "assess", *args)
        tracer.uninstall()
        records = cache_records(outdir / "cache.jsonl")
        check_study(checks, table, records, design + mc)
        misses = len(records)
        computed += misses
        extra["simulate.rerun_s"] = warm_rerun(
            checks, outdir, lambda: _cli(cli_main, "assess", *args))
        appended = len(cache_records(outdir / "cache.jsonl")) - len(records)
        lookups = len(design) + 2 * len(mc)
        extra["simulate.cache_misses"] = misses + appended
        extra["simulate.cache_hits"] = lookups - misses - appended

    metrics = layer_metrics(tracer, computed, extra)
    report(workload, seed, tracer, metrics)
    return metrics


def layer_metrics(tracer: Tracer, calls: int, extra: dict) -> dict:
    """name -> (value, unit); a metric whose hook is missing is left out."""
    totals, counts = tracer.totals(), tracer.counts

    def n(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inc(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def per_call(value):
        return value / max(calls, 1)

    rows = [
        ("meshes.build_s", "meshes.build",
         tracer.first("meshes.build") + tracer.first("meshes.space"), "s"),
        ("randomfield.kl_s", "randomfield.kl", tracer.first("randomfield.kl"), "s"),
        ("viscosity.model_s", "viscosity.model", tracer.first("viscosity.model"), "s"),
        ("simulate.call_s", "simulate.call", per_call(inc("simulate.call")), "s"),
        ("simulate.self_s", "simulate.call", per_call(own("simulate.call")), "s"),
        ("viscosity.rejected", "viscosity.evaluate",
         counts.get("viscosity.rejected", 0), "count"),
        ("steady.solve_s", "steady.solve", per_call(inc("steady.solve")), "s"),
        ("steady.self_s", "steady.solve", per_call(own("steady.solve")), "s"),
        ("steady.steps", "steady.solve", per_call(counts.get("steady.steps", 0)), "count"),
        ("steady.failed", "steady.solve", counts.get("steady.failed", 0), "count"),
        ("steady.factorizations", "steady.factor", per_call(n("steady.factor")), "count"),
        ("steady.lu_nnz", "steady.factor",
         counts.get("steady.lu_nnz", 0) / max(n("steady.factor"), 1), "count"),
        ("eigen.solve_s", "eigen.solve", per_call(inc("eigen.solve")), "s"),
        ("eigen.self_s", "eigen.solve",
         per_call(own("eigen.solve") + own("eigen.retry")), "s"),
        ("eigen.retries", "eigen.retry", n("eigen.retry"), "count"),
        ("eigen.failed", "eigen.solve", counts.get("eigen.failed", 0), "count"),
        ("eigen.lu_nnz", "eigen.factor",
         counts.get("eigen.lu_nnz", 0) / max(n("eigen.factor"), 1), "count"),
        ("eigen.op_applies", "eigen.arpack",
         per_call(counts.get("eigen.op_applies", 0)), "count"),
        ("surrogates.fit_s.sc", "surrogates.fit.sc", inc("surrogates.fit.sc"), "s"),
        ("surrogates.fit_s.gp", "surrogates.fit.gp", inc("surrogates.fit.gp"), "s"),
        ("surrogates.fit_s.nn", "surrogates.fit.nn", inc("surrogates.fit.nn"), "s"),
        ("surrogates.eval_s", "surrogates.eval", inc("surrogates.eval"), "s"),
        ("metrics.report_s", "metrics.report", inc("metrics.report"), "s"),
    ]
    rows += [(span + "_s", span, per_call(inc(span)), "s") for span in PER_CALL_S]
    metrics = {name: (value, unit) for name, layer, value, unit in rows
               if layer not in tracer.missing}
    for name in ("cli.train_s", "cli.assess_s", "simulate.rerun_s"):
        metrics[name] = (extra.get(name, 0.0), "s")
    for name in ("simulate.cache_hits", "simulate.cache_misses"):
        metrics[name] = (extra.get(name, 0), "count")
    metrics["trace.overhead_ratio"] = (extra["trace.overhead_ratio"], "ratio")
    return dict(sorted(metrics.items()))


def report(workload: str, seed: int, tracer: Tracer, metrics: dict) -> None:
    """Self time per span name and the steady/eigen split, then the spans."""
    totals = tracer.totals()
    print(f"{'span':<22} {'count':>6} {'total_s':>9} {'self_s':>9}")
    for name, (count, inc, own) in sorted(totals.items()):
        print(f"{name:<22} {count:>6} {inc:>9.4f} {own:>9.4f}")
    call = metrics.get("simulate.call_s", (0.0, "s"))[0]
    if call:
        steady = metrics.get("steady.solve_s", (0.0, ""))[0]
        eigen = (metrics.get("eigen.solve_s", (0.0, ""))[0]
                 + metrics.get("eigen.pencil_s", (0.0, ""))[0])
        print(f"split per call: steady {steady / call:.1%}, eigen {eigen / call:.1%}, "
              f"other {1 - (steady + eigen) / call:.1%} of {call:.3f} s")
    ratio = metrics["trace.overhead_ratio"][0]
    print(f"tracing overhead: traced/untraced wall of the same germs = {ratio:.4f}")
    out = WORK / "traces" / f"{workload}-s{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"columns": ["name", "start", "end", "paused_s", "parent", "call"],
                               "spans": tracer.dump(), "counts": tracer.counts}))
    print(f"spans written to {out.relative_to(WORK.parent)}")
