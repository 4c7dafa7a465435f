"""Command-line front door.

Subcommands: ``solve`` (one steady state + rightmost eigenvalue),
``spectrum`` (Ritz values at the mean viscosity), ``train`` (surrogates at
the sparse-grid design), ``assess`` (Monte Carlo validation tables), and
``cache`` (inspect/clear the evaluation cache).

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 eigensolver failure.  All output files embed the resolved configuration
and seeds; timing lines go to the console only, so reruns with the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .assembly import quad_data
from .config import (ExperimentConfig, build_mesh, build_simulator,
                     build_space_for, cov_tag, load_config)
from .eigen import ritz_to_csv
from .errors import (ConfigError, ConvergenceError, EigenError,
                     FlowstabError, SolverError)
from .metrics import Report, build_report, metrics_csv
from .quadrature import smolyak
from .simulate import SampleSet, Simulator, monte_carlo, read_cache, stability
from .surrogates import (FIT, MIN_DESIGN, TrainingSet, gp_train,
                         load_surrogate, nn_train, read_surrogate,
                         save_surrogate, sc_train)


def surrogate_path(config: ExperimentConfig, name: str, cov: float) -> Path:
    return config.outdir / f"surrogate_{name}_{cov_tag(cov)}.json"


def surrogate_paths(config: ExperimentConfig) -> list:
    """The surrogate files of every CoV and model."""
    return [surrogate_path(config, name, cov)
            for cov in config.covs for name in config.models]


def prepare_outdir(config: ExperimentConfig, surrogates=()) -> None:
    """Create the output directory, before a command computes anything.

    An outdir that cannot be made (a file, or a file above it) and a
    surrogate file among `surrogates` that is a directory are a
    :class:`ConfigError` naming the path."""
    try:
        config.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"paths.outdir: cannot make the directory "
                          f"{config.outdir} ({exc.strerror})")
    for path in surrogates:
        if path.is_dir():
            raise ConfigError(f"{path}: the surrogate path is a directory")


def design_samples(config: ExperimentConfig):
    """Sparse-grid nodes packaged as the training sample set."""
    grid = smolyak(config.family, config.m, config.level)
    samples = SampleSet(grid.nodes, seed=config.sample_seed,
                        distribution=config.distribution)
    return grid, samples


def train_surrogates(config: ExperimentConfig, sim: Simulator,
                     workers: int = 1) -> dict:
    """Run the simulator at the design nodes and fit the selected models.

    The collocation surrogate always uses the full grid (its weights are
    tied to the nodes); the regression models honour the subsample stride.
    A stride that leaves a model too few design points is a configuration
    error, raised before any design solve.
    """
    grid, samples = design_samples(config)
    n_design = len(range(0, samples.n, config.stride))
    for name in config.models:
        if n_design < MIN_DESIGN.get(name, 0):
            raise ConfigError(
                f"surrogates.stride = {config.stride} leaves {n_design} of "
                f"{samples.n} design nodes; {name} needs {MIN_DESIGN[name]}")
    result = monte_carlo(sim, samples, workers=workers)
    if result.n_failed:
        bad = [i for i, r in enumerate(result.records) if r.failed]
        raise ConvergenceError(
            f"{result.n_failed} design-node solves failed (nodes {bad}; "
            f"{failure_counts(result.records)}); surrogates need the full grid")

    cov = sim.model.cov
    surrogates: dict[str, object] = {}
    provenance = surrogate_provenance(config, sim)
    if set(config.models) & set(MIN_DESIGN):
        design = TrainingSet.from_samples(
            samples.xi, result.lam_re).subsample(config.stride)
    for name in config.models:
        start = time.perf_counter()
        if name == "sc":
            fitted = sc_train(grid, result.lam_re, config.p)
        elif name == "gp":
            fitted = gp_train(design)
        else:
            fitted = nn_train(design, seed=config.nn_seed)
        elapsed = time.perf_counter() - start
        print(f"[train] {name} ({cov_tag(cov)}): {elapsed:.2f} s")
        surrogates[name] = fitted
        save_surrogate(fitted, surrogate_path(config, name, cov),
                       provenance=provenance)
    return surrogates


def surrogate_provenance(config: ExperimentConfig, sim: Simulator) -> dict:
    """What `train` stores with each surrogate, as read back from JSON."""
    return json.loads(json.dumps({
        "config": config.resolved(), "cov": sim.model.cov, "fit": FIT,
        "model": sim.model.describe(), "simulator": sim.fingerprint,
        "design": {"n_nodes": design_samples(config)[1].n,
                   "stride": config.stride}}))


def ensure_surrogates(config: ExperimentConfig, sim: Simulator,
                      workers: int = 1) -> dict:
    """Load the trained surrogates, or train them all again when a file is
    missing or its stored provenance is not what `train` would write now.

    Provenance is compared before anything is loaded, so a stale file is
    retrained whatever else it holds; a current one that is malformed, or
    a file that is not JSON, is a :class:`ConfigError`."""
    paths = {name: surrogate_path(config, name, sim.model.cov)
             for name in config.models}
    if all(path.exists() for path in paths.values()):
        docs = {name: read_surrogate(path) for name, path in paths.items()}
        want = surrogate_provenance(config, sim)
        if all(isinstance(doc, dict) and doc.get("provenance") == want
               for doc in docs.values()):
            return {name: load_surrogate(path, config.m, docs[name])
                    for name, path in paths.items()}
    return train_surrogates(config, sim, workers=workers)


def assess_one(config: ExperimentConfig, sim: Simulator, surrogates: dict,
               workers: int = 1) -> Report:
    """Monte Carlo run plus surrogate columns for the simulator's CoV."""
    cov = sim.model.cov
    samples = SampleSet.draw(config.n_mc, config.m, config.distribution,
                             config.sample_seed)
    start = time.perf_counter()
    result = monte_carlo(sim, samples, workers=workers)
    elapsed = time.perf_counter() - start
    print(f"[assess] simulator x{samples.n} ({cov_tag(cov)}): "
          f"{elapsed:.2f} s ({elapsed / samples.n:.3f} s/sample)")
    if not result.ok.any():
        raise SolverError(f"all {samples.n} Monte Carlo samples at "
                          f"{cov_tag(cov)} failed "
                          f"({failure_counts(result.records)}); the report "
                          f"needs at least one")

    ok_xi = samples.xi[result.ok]
    columns = {}
    for name, fitted in surrogates.items():
        start = time.perf_counter()
        columns[name] = fitted.evaluate(ok_xi)
        elapsed = time.perf_counter() - start
        print(f"[assess] {name} x{ok_xi.shape[0]}: {elapsed:.4f} s")

    provenance = {"config": config.resolved(), "cov": cov,
                  "model": sim.model.describe(),
                  "sample_seed": config.sample_seed}
    return build_report(result.values(), columns, label=cov_tag(cov),
                        sample_hash=result.sample_hash,
                        n_failed=result.n_failed, provenance=provenance)


def failure_reasons(notes) -> Counter:
    """Count of failure notes per stage; a note starts with its stage
    (viscosity, steady solve, eigensolve) and a colon."""
    return Counter(str(note).partition(":")[0] or "unknown" for note in notes)


def failure_counts(records) -> str:
    """``"reason: count, ..."`` over the failed `records`, reasons sorted."""
    reasons = failure_reasons(r.note for r in records if r.failed)
    return ", ".join(f"{reason}: {count}"
                     for reason, count in sorted(reasons.items()))


def _parse_xi(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    try:
        xi = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"could not parse --xi value {text!r}")
    if xi.size != dim:
        raise ConfigError(f"--xi needs {dim} components, got {xi.size}")
    if not np.isfinite(xi).all():
        raise ConfigError(f"--xi components must be finite, got {text!r}")
    return xi


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    # the CPUs this process may run on, which taskset or a cpuset may limit
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def cmd_solve(args) -> int:
    config = load_config(args.config)
    cov = config.covs[0]
    xi = _parse_xi(args.xi, config.m)
    prepare_outdir(config)
    sim = build_simulator(config, cov, use_cache=False)
    start = time.perf_counter()
    try:
        # one sample, so nothing to warm-start it from: the cold chain
        steady, eig = stability(sim.mesh, sim.space, sim.model.evaluate(xi),
                                sim.settings, sim.k, sim.seed)
    except ConvergenceError as exc:
        trace_path = config.outdir / "solve_trace.json"
        trace_path.write_text(json.dumps(
            {"error": str(exc), "trace": exc.trace,
             "config": config.resolved(), "xi": xi.tolist()},
            indent=2, sort_keys=True) + "\n")
        print(f"steady solve failed; trace written to {trace_path}",
              file=sys.stderr)
        raise
    print(f"[solve] steady state and eigensolve: "
          f"{time.perf_counter() - start:.2f} s")

    np.save(config.outdir / "velocity.npy", steady.state.velocity)
    np.save(config.outdir / "pressure.npy", steady.state.pressure)
    payload = {
        "config": config.resolved(),
        "cov": cov,
        "xi": xi.tolist(),
        "eigenvalue": {"re": eig.eigenvalue.real, "im": eig.eigenvalue.imag},
        "method": eig.method,
        "k": eig.k,
        "residual": eig.residual,
        "steady": {"residual": steady.residual,
                   "reference": steady.reference,
                   "iterations": len(steady.trace)},
    }
    (config.outdir / "solve.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"rightmost eigenvalue: {eig.eigenvalue.real:+.6e} "
          f"{eig.eigenvalue.imag:+.6e}i")
    return 0


def cmd_spectrum(args) -> int:
    config = load_config(args.config)
    prepare_outdir(config)
    mesh = build_mesh(config)
    space = build_space_for(config, mesh)
    start = time.perf_counter()
    # the deterministic reference computation: constant mean viscosity
    eig = stability(mesh, space, np.full_like(quad_data(mesh).qw, config.nu1),
                    config.solver, config.k, config.eigen_seed)[1]
    print(f"[spectrum] total: {time.perf_counter() - start:.2f} s, "
          f"{eig.candidates.size} Ritz values retained")

    ritz_to_csv(eig, config.outdir / "spectrum.csv")
    payload = {
        "config": config.resolved(),
        "rightmost": {"re": eig.eigenvalue.real, "im": eig.eigenvalue.imag},
        "k": eig.k,
        "method": eig.method,
        "n_candidates": int(eig.candidates.size),
        "n_excluded": int(eig.excluded.size),
    }
    (config.outdir / "spectrum.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"rightmost: {eig.eigenvalue.real:+.6e} {eig.eigenvalue.imag:+.6e}i")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    workers = _resolve_workers(args)
    prepare_outdir(config, surrogate_paths(config))
    for cov in config.covs:
        sim = build_simulator(config, cov)
        train_surrogates(config, sim, workers=workers)
        for name in config.models:
            print(f"wrote {surrogate_path(config, name, cov)}")
    return 0


def cmd_assess(args) -> int:
    config = load_config(args.config)
    workers = _resolve_workers(args)
    prepare_outdir(config, surrogate_paths(config))

    reports = []
    for cov in config.covs:
        sim = build_simulator(config, cov)
        surrogates = ensure_surrogates(config, sim, workers=workers)
        report = assess_one(config, sim, surrogates, workers=workers)
        tag = cov_tag(cov)
        report.to_json(config.outdir / f"report_{tag}.json")
        report.kde_csv(config.outdir / f"kde_{tag}.csv")
        reports.append(report)
    metrics_csv(reports, config.outdir / "metrics.csv")
    print(f"wrote {config.outdir / 'metrics.csv'}")
    return 0


def cmd_cache(args) -> int:
    config = load_config(args.config)
    if config.cache is None:
        print("cache disabled in config")
        return 0
    path = config.outdir / config.cache
    if path.is_dir():
        raise ConfigError(f"{path}: the cache path is a directory")
    if args.cache_action == "clear":
        if path.exists():
            path.unlink()
            print(f"removed {path}")
        else:
            print(f"nothing to remove at {path}")
        return 0
    # inspect
    if not path.exists():
        print(f"no cache at {path}")
        return 0
    records = read_cache(path)[0]
    fingerprints = Counter(record["fingerprint"] for record in records)
    reasons = failure_reasons(record.get("note", "") for record in records
                              if record["failed"])
    print(f"{path}: {len(records)} records, {sum(reasons.values())} failed, "
          f"{len(fingerprints)} distinct configurations")
    for fp, count in sorted(fingerprints.items()):
        print(f"  {fp[:16]}...  {count}")
    for reason, count in sorted(reasons.items()):
        print(f"  failed ({reason}): {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowstab",
        description="Stability of steady flows under uncertain viscosity")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="experiment configuration (YAML)")
    common.add_argument("--workers", type=int, default=None,
                        help="simulator worker processes "
                             "(default: logical cores)")

    p = sub.add_parser("solve", parents=[common],
                       help="one steady solve plus rightmost eigenvalue")
    p.add_argument("--xi", default=None,
                   help="comma-separated germ sample (default: origin)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", parents=[common],
                       help="Ritz values at the mean viscosity")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", parents=[common],
                       help="fit surrogates at the sparse-grid design")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("assess", parents=[common],
                       help="Monte Carlo validation tables and KDE curves")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("cache", parents=[common],
                       help="inspect or clear the evaluation cache")
    p.add_argument("cache_action", choices=("inspect", "clear"))
    p.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EigenError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except FlowstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
