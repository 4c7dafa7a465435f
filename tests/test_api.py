"""The package's top-level surface is exactly the README's Library section."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowstab

README = Path(__file__).resolve().parent.parent / "README.md"


def library_code() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def library_imports() -> list:
    return [alias.name for node in ast.parse(library_code()).body
            if isinstance(node, ast.ImportFrom) and node.module == "flowstab"
            for alias in node.names]


def test_all_matches_readme_library():
    names = library_imports()
    assert sorted(names) == sorted(flowstab.__all__)
    assert len(set(flowstab.__all__)) == len(flowstab.__all__)
    for name in flowstab.__all__:
        assert hasattr(flowstab, name)


@pytest.mark.slow
def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_code(), "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("min viscosity at the mean germ:")
    # design maximum, Monte Carlo mean and failure count
    assert len(lines[1].split()) == 3


def test_cli_import_leaves_scipy_optimize_out():
    # every `train` and `assess` process pays for the CLI's imports, and
    # scipy.optimize alone took about 0.25 s of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(flowstab.__file__).parent.parent), env.get("PYTHONPATH")]))
    code = "import sys, flowstab.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
