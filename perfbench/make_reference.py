"""Record the reference eigenvalue of every germ the benchmark can use.

Run once, at the commit that defines the benchmark, from the repository
root:

    python3 perfbench/make_reference.py

Later runs check their results against the stored values, so this file is
regenerated only when a change is meant to move the eigenvalues, and such a
change says so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from flowstab import (SampleSet, build_simulator, config_from_dict,  # noqa: E402
                      monte_carlo, smolyak)


def rows(sim, xi, distribution, workers):
    result = monte_carlo(sim, SampleSet(xi, 0, distribution), workers=workers)
    out = []
    for record in result.records:
        if record.failed:
            raise SystemExit(f"reference germ {record.xi} failed: {record.note}")
        out.append([*record.xi, record.lam_re, record.lam_im])
    return out


def make(workload: str, workers: int) -> dict:
    config = config_from_dict(wl.settings(workload, 0))
    sim = build_simulator(config, wl.COV, use_cache=False)
    _, pool_seed, distribution = wl.WORKLOADS[workload]
    if workload == "desk-study":
        grid = smolyak(config.family, config.m, config.level)
        slots = {}
        for slot in range(wl.DESK_SLOTS + 1):
            xi = SampleSet.draw(wl.DESK_N_MC, config.m, distribution,
                                wl.DESK_SLOT_SEED0 + slot).xi
            slots[str(slot)] = rows(sim, xi, distribution, workers)
            print(f"{workload}: slot {slot} done", flush=True)
        return {"design": rows(sim, grid.nodes, distribution, workers),
                "slots": slots}
    xi = SampleSet.draw(2 * wl.POOL_SIZE, config.m,
                        distribution, pool_seed).xi
    return {"pool": rows(sim, xi, distribution, workers)}


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, cwd=HERE).stdout.strip()
    data = {"recorded_at": commit or "unknown", "tolerance": wl.TOLERANCE}
    workers = len(os.sched_getaffinity(0))
    for workload in sorted(wl.WORKLOADS):
        data[workload] = make(workload, workers)
    wl.REFERENCE_PATH.write_text(json.dumps(data, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
