"""Workload definitions: program settings, seeded inputs and reference checks.

Every input the program receives is derived here from the workload seed.
Germs are drawn from fixed pools whose rightmost eigenvalues were recorded
once, at the commit that introduced the benchmark (``reference.json``, made
by ``make_reference.py``); every later run is checked against them.

* ``desk-study`` hands the CLI a config whose ``assess.sample_seed`` picks
  one of ``DESK_SLOTS`` Monte Carlo sets; the design nodes are the fixed
  sparse grid the CLI builds itself with ``smolyak``.
* ``step-refine2`` calls ``monte_carlo`` once per germ, walking a seeded
  permutation of one fixed pool of germs.  Every seed walks the same germs,
  because germ costs differ and a run holds only a few calls.

``HOLDOUT_SEED`` selects germs that no other seed reaches (its own desk
slot, its own pool) and that no baseline figure used, so a later claim can
be re-checked on inputs it was not tuned on.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_PATH = HERE / "reference.json"

#: absolute agreement required between a computed and a reference eigenvalue
TOLERANCE = 1e-8

HOLDOUT_SEED = 2021

DESK_SLOTS = 24
DESK_SLOT_SEED0 = 1000
DESK_N_MC = 40

#: refine-2 germs every run walks (one ``study``, and the traced run); a
#: 55 s run cycles through them about twice.  The hold-out pool has as many.
POOL_SIZE = 5

_DESK = {
    "benchmark": "obstacle",
    "mesh": {"refine": 1, "length": 8.0, "stretch": 1.0},
    "viscosity": {"nu1": 5.36193e-3, "covs": [0.10], "m": 2, "p": 3, "level": 4},
    "eigen": {"k": 24, "seed": 0},
    "surrogates": {"models": ["sc", "gp", "nn"], "stride": 1, "nn_seed": 0},
    "assess": {"n_mc": DESK_N_MC, "sample_seed": DESK_SLOT_SEED0},
    "paths": {"outdir": "out", "cache": "cache.jsonl"},
}

_STEP2 = {
    "benchmark": "step",
    "mesh": {"refine": 2},
    "viscosity": {"nu1": 4.5455e-3, "covs": [0.10], "m": 2, "p": 3, "level": 4},
    "solver": {"picard_steps": 20, "newton_steps": 20},
    "eigen": {"k": 24, "seed": 0},
    "surrogates": {"models": ["sc", "gp", "nn"], "stride": 1, "nn_seed": 0},
    "assess": {"n_mc": 1, "sample_seed": 0},
    "paths": {"outdir": "out", "cache": "cache.jsonl"},
}

#: workload -> (settings, germ pool seed, germ distribution)
WORKLOADS = {
    "desk-study": (_DESK, None, "normal"),
    "step-refine2": (_STEP2, 7002, "uniform"),
}

COV = 0.10


def desk_slot(seed: int) -> int:
    return DESK_SLOTS if seed == HOLDOUT_SEED else seed % DESK_SLOTS


def settings(workload: str, seed: int) -> dict:
    """The config the program receives for this workload and seed."""
    config = json.loads(json.dumps(WORKLOADS[workload][0]))
    if workload == "desk-study":
        config["assess"]["sample_seed"] = DESK_SLOT_SEED0 + desk_slot(seed)
    return config


def write_config(workload: str, seed: int, directory: Path) -> Path:
    """Write the config as JSON, which every YAML loader reads."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.yaml"
    path.write_text(json.dumps(settings(workload, seed), indent=1) + "\n")
    return path


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def germ_order(workload: str, seed: int, reference: dict) -> list:
    """Germs a refine-2 run walks, in order, as ``[xi0, xi1]`` lists."""
    pool = [row[:2] for row in reference[workload]["pool"]]
    if seed == HOLDOUT_SEED:
        return pool[POOL_SIZE:]
    order = pool[:POOL_SIZE]
    random.Random(seed).shuffle(order)
    return order


def desk_germs(seed: int, reference: dict) -> tuple[list, list]:
    """Design nodes and the seed's Monte Carlo germs for ``desk-study``."""
    ref = reference["desk-study"]
    slot = ref["slots"][str(desk_slot(seed))]
    return [row[:2] for row in ref["design"]], [row[:2] for row in slot]


def desk_latency_germs(seed: int, reference: dict) -> list:
    """Germs of the desk per-call sweep: the 29 design nodes, in seeded order.

    Every seed's study computes these, so the latency is not tied to the
    seed's Monte Carlo germs, whose costs differ."""
    order = desk_germs(seed, reference)[0]
    random.Random(seed).shuffle(order)
    return order


def reference_table(workload: str, reference: dict) -> dict:
    """``(xi0, xi1) -> (re, im)`` over every germ recorded for a workload."""
    ref = reference[workload]
    rows = list(ref.get("pool", [])) + list(ref.get("design", []))
    for slot in ref.get("slots", {}).values():
        rows.extend(slot)
    return {(r[0], r[1]): (r[2], r[3]) for r in rows}


def check(table: dict, xi, lam_re: float, lam_im: float, failed: bool) -> str:
    """Empty string when the record matches its reference, else the reason."""
    key = (float(xi[0]), float(xi[1]))
    if key not in table:
        return f"germ {key} has no reference"
    if failed:
        return f"germ {key} failed"
    ref_re, ref_im = table[key]
    err = abs(complex(lam_re, lam_im) - complex(ref_re, ref_im))
    if not err <= TOLERANCE:
        return (f"germ {key}: {lam_re:+.12e}{lam_im:+.12e}i is {err:.2e} "
                f"from the reference {ref_re:+.12e}{ref_im:+.12e}i")
    return ""


# -- correctness ------------------------------------------------------------


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


class Checks:
    """Attempted operations and the reasons of the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(reason)

    def calls(self, table: dict, calls: list) -> None:
        for xi, lam_re, lam_im, failed, *_ in calls:
            self.add(check(table, xi, lam_re, lam_im, failed))


def cache_records(path: Path) -> list:
    if not path.exists():
        return []
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def output_bytes(outdir: Path) -> dict:
    paths = [outdir / "metrics.csv", *sorted(outdir.glob("report_*.json")),
             *sorted(outdir.glob("kde_*.csv"))]
    return {p.name: p.read_bytes() for p in paths if p.exists()}


def warm_rerun(checks: Checks, outdir: Path, rerun) -> float:
    """Delete the outputs of the cold ``assess``, call ``rerun()`` (a warm
    ``assess``) and check that it rewrote them byte-identically without
    appending to the cache.  Returns what ``rerun`` returned."""
    before = output_bytes(outdir)
    lines = len(cache_records(outdir / "cache.jsonl"))
    for name in before:
        (outdir / name).unlink()
    result = rerun()
    after = output_bytes(outdir)
    if len(before) < 3:
        checks.add(f"cold assess wrote only {sorted(before)}")
    else:
        changed = sorted(n for n in before.keys() | after.keys()
                         if before.get(n) != after.get(n))
        checks.add(f"warm rerun changed {changed}" if changed else "")
    grown = len(cache_records(outdir / "cache.jsonl")) - lines
    checks.add(f"warm rerun appended {grown} cache lines" if grown else "")
    return result


def check_study(checks: Checks, table: dict, records: list, expected: list) -> None:
    seen = sorted((r["xi"][0], r["xi"][1]) for r in records)
    want = sorted((x[0], x[1]) for x in expected)
    if seen != want:
        checks.add(f"cache holds {len(seen)} germs, the study needs {len(want)}")
    for r in records:
        checks.add(check(table, r["xi"], r["lam_re"], r["lam_im"], r["failed"]))
