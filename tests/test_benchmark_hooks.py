"""The benchmark's self-test passes against this source tree.

``perfbench/tracing.py`` times each layer by patching names in the
``flowstab`` modules from outside.  A refactor that drops or renames one of
those names fails here, instead of silently losing per-layer metrics.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"],
                            cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    output = result.stdout + result.stderr
    assert result.returncode == 0, output
    assert "selftest: ok" in result.stdout
    assert "skip hooks" not in output and "not found" not in output
