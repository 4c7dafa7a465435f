"""Self-test of the benchmark harness; runs in seconds, solves nothing.

    python3 perfbench/selftest.py

Checks that input generation is deterministic in the seed, that every
metric name the harness emits matches ``[A-Za-z0-9_.-]+`` and is declared
in ``BENCHMARK.json`` with the same unit (and the other way round), that
the reference covers every germ a seed can reach, and that the hooks find
every name they wrap, restore it, and fail soft when one is gone.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import workloads as wl
from run import END_TO_END
from traced import layer_metrics
from tracing import Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = (1, 2, 3, wl.HOLDOUT_SEED)


def check_generation(reference: dict) -> None:
    for workload in wl.WORKLOADS:
        for seed in SEEDS:
            assert wl.settings(workload, seed) == wl.settings(workload, seed)
        if workload == "desk-study":
            germs = {s: wl.desk_germs(s, reference) for s in SEEDS}
            assert all(germs[s] == wl.desk_germs(s, reference) for s in SEEDS)
            mc = [tuple(map(tuple, germs[s][1])) for s in SEEDS]
            assert len(set(mc)) == len(SEEDS), "seeds share Monte Carlo germs"
            slots = {wl.desk_slot(s) for s in range(10 * wl.DESK_SLOTS)}
            assert wl.desk_slot(wl.HOLDOUT_SEED) not in slots
            sample_seeds = {wl.settings(workload, s)["assess"]["sample_seed"]
                            for s in SEEDS}
            assert len(sample_seeds) == len(SEEDS)
            for seed in SEEDS:
                latency = wl.desk_latency_germs(seed, reference)
                assert latency == wl.desk_latency_germs(seed, reference)
                assert sorted(latency) == sorted(germs[seed][0])
        else:
            orders = [wl.germ_order(workload, s, reference) for s in SEEDS]
            assert orders == [wl.germ_order(workload, s, reference) for s in SEEDS]
            assert len({tuple(map(tuple, o)) for o in orders}) == len(SEEDS)
            assert all(sorted(o) == sorted(orders[0]) for o in orders[:-1])
            holdout = {tuple(g) for g in orders[-1]}
            assert not holdout & {tuple(g) for o in orders[:-1] for g in o}


def check_reference(reference: dict) -> None:
    for workload in wl.WORKLOADS:
        table = wl.reference_table(workload, reference)
        if workload == "desk-study":
            design, _ = wl.desk_germs(0, reference)
            assert len(design) == 29
            for slot in range(wl.DESK_SLOTS + 1):
                assert len(reference[workload]["slots"][str(slot)]) == wl.DESK_N_MC
        else:
            assert len(reference[workload]["pool"]) == 2 * wl.POOL_SIZE
        for (x0, x1), (re_, im) in table.items():
            assert wl.check(table, [x0, x1], re_, im, False) == ""
            assert wl.check(table, [x0, x1], re_ + 1e-6, im, False) != ""


def check_names() -> None:
    declared = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)), "a metric name is declared twice"
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    layers = layer_metrics(Tracer(), 1, {"trace.overhead_ratio": 1.0})
    for section, emitted in (("end_to_end", END_TO_END),
                             ("per_layer", {k: u for k, (_, u) in layers.items()})):
        units = {m["name"]: m["unit"] for m in declared[section]}
        for name, unit in emitted.items():
            assert NAME.fullmatch(name), f"bad metric name {name!r}"
            assert units.get(name) == unit, f"{name} [{unit}] not declared in {section}"
        assert set(units) == set(emitted), f"{section}: declared but never emitted: " \
            f"{sorted(set(units) - set(emitted))}"


def check_hooks() -> None:
    if not (wl.SRC / "flowstab").is_dir():
        print("skip hooks: no flowstab sources")
        return
    sys.path.insert(0, str(wl.SRC))
    import flowstab.cli as cli
    import flowstab.config as config

    before = (config.build_mesh, cli.build_mesh, cli.build_report)
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing, f"hooks not found: {sorted(tracer.missing)}"
    assert cli.build_mesh is config.build_mesh is not before[0]
    tracer.uninstall()
    assert (config.build_mesh, cli.build_mesh, cli.build_report) == before

    original = cli.__dict__.pop("build_report")
    warning = io.StringIO()
    try:
        tracer = Tracer()
        with contextlib.redirect_stderr(warning):
            tracer.install()
        tracer.uninstall()
    finally:
        cli.build_report = original
    assert "build_report not found" in warning.getvalue()
    assert tracer.missing == {"metrics.report"}
    assert "metrics.report_s" not in layer_metrics(tracer, 1, {"trace.overhead_ratio": 1.0})


def main() -> int:
    reference = wl.load_reference()
    check_generation(reference)
    check_reference(reference)
    check_names()
    check_hooks()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
