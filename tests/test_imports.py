"""The package promises to run on the standard library alone
(``dependencies = []`` in pyproject.toml): every absolute import in its
modules must name a standard-library module."""

import ast
import os
import sys

import tropmono


def test_package_imports_only_the_standard_library():
    src = os.path.dirname(tropmono.__file__)
    paths = sorted(os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py"))
    assert len(paths) >= 7
    foreign = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    foreign.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    assert foreign == []
