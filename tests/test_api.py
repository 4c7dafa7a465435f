"""The package's top-level surface is exactly the README's Library section."""

import ast
import re
from pathlib import Path

import flowstab

README = Path(__file__).resolve().parent.parent / "README.md"


def library_imports() -> list:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [alias.name for node in ast.parse(code).body
            if isinstance(node, ast.ImportFrom) and node.module == "flowstab"
            for alias in node.names]


def test_all_matches_readme_library():
    names = library_imports()
    assert sorted(names) == sorted(flowstab.__all__)
    assert len(set(flowstab.__all__)) == len(flowstab.__all__)
    for name in flowstab.__all__:
        assert hasattr(flowstab, name)
