"""One benchmark child process: set up a simulator, then time calls.

    python3 perfbench/sweep.py --config C [--germs G.json --seconds T
                               --min-calls N --max-calls M]

Prints ``ready`` as soon as the simulator is set up (mesh, space, KL,
model and, without ``--germs``, an open evaluation cache), so the parent can
time set-up from process start.  With ``--germs`` it then calls
``monte_carlo`` once per germ at ``workers=1`` without the cache, cycling
through the list, and keeps starting calls while the last one would still
end within ``--seconds`` (between ``--min-calls`` and ``--max-calls``).
The last line is a JSON object with the per-call records, the CPU seconds
of the sweep and its wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowstab import SampleSet, build_simulator, load_config, monte_carlo  # noqa: E402
from workloads import COV  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--germs")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--max-calls", type=int, default=10**6)
    args = parser.parse_args()

    config = load_config(args.config)
    sim = build_simulator(config, COV, use_cache=args.germs is None)
    print("ready", flush=True)
    if args.germs is None:
        return 0

    germs = json.loads(Path(args.germs).read_text())
    calls = []
    cpu0, start = time.process_time(), time.perf_counter()
    while len(calls) < args.max_calls:
        xi = germs[len(calls) % len(germs)]
        t0 = time.perf_counter()
        record = monte_carlo(sim, SampleSet([xi], 0, config.distribution)).records[0]
        wall = time.perf_counter() - t0
        calls.append([xi, record.lam_re, record.lam_im, record.failed, wall])
        elapsed = time.perf_counter() - start
        if len(calls) >= args.min_calls and elapsed + wall > args.seconds:
            break
    print(json.dumps({"calls": calls, "cpu_s": time.process_time() - cpu0,
                      "wall_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
