"""The package promises to run on the standard library alone
(``dependencies = []`` in pyproject.toml): every absolute import in its
modules must name a standard-library module.  Every name it exports is
used by the package, the bench or the README, not by the tests only.
And ``import tropmono`` loads only the layers a caller uses."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

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


def _referenced_names(path):
    """Every bare name, attribute and import alias the module mentions."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_outside_the_tests():
    """A public name must earn its place: some package module (other than
    the re-exporting __init__) or bench script refers to it, or the
    README shows it in code.  Names only the tests call do not belong
    in __all__."""
    src = os.path.dirname(tropmono.__file__)
    root = os.path.dirname(os.path.dirname(src))
    bench = os.path.join(root, "perfbench")
    paths = [os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py") and f != "__init__.py"]
    paths += [os.path.join(bench, f) for f in os.listdir(bench) if f.endswith(".py")]
    used = set()
    for path in paths:
        used |= _referenced_names(path)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        spans = re.findall(r"(`+)(.+?)\1", fh.read(), re.DOTALL)
    shown = {word for _, span in spans for word in re.findall(r"\w+", span)}
    unused = [name for name in tropmono.__all__ if name not in used and name not in shown]
    assert unused == []


def _loaded_names(node):
    """The bare names node loads, and the attributes and import aliases
    it mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _defined_names(stmt):
    """The functions, classes and constants a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def test_every_top_level_name_is_referenced_in_the_package():
    """A dead helper fails here: every function, class and constant at
    the top of a package module is referred to by some package module
    outside its own definition.  Dunder names are exempt."""
    src = os.path.dirname(tropmono.__file__)
    stmts = []
    for f in sorted(os.listdir(src)):
        if f.endswith(".py"):
            with open(os.path.join(src, f), encoding="utf-8") as fh:
                stmts += [(f, stmt) for stmt in ast.parse(fh.read(), f).body]
    refs = [_loaded_names(stmt) for _, stmt in stmts]
    # The package names its exports in a table of strings: re-exporting
    # a name refers to it.
    refs.append(set(tropmono.__all__))
    unused = [
        f"{f}:{stmt.lineno} {name}"
        for k, (f, stmt) in enumerate(stmts)
        for name in sorted(_defined_names(stmt))
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in r for j, r in enumerate(refs) if j != k)
    ]
    assert unused == []


def _modules_after(code, *flags):
    """The modules a fresh interpreter holds after import tropmono and code."""
    src = os.path.dirname(os.path.dirname(tropmono.__file__))
    script = f"import sys, tropmono\n{code}\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, *flags, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return set(out.split())


def _package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "tropmono"}


def test_import_loads_only_the_layers_used():
    """The package loads semiring and matrix; the first use of a name
    loads the layer that defines it, and that layer's imports only."""
    base = {"tropmono", "tropmono.semiring", "tropmono.matrix"}
    assert _package_modules(_modules_after("")) == base
    assert _package_modules(_modules_after("tropmono.closure")) == base | {"tropmono.finite"}
    assert _package_modules(_modules_after("tropmono.factor")) == base | {"tropmono.genset", "tropmono.factorize"}
    # A layer's module loads by its own name, as when the package loaded them all.
    assert _package_modules(_modules_after("assert tropmono.finite.closure")) == base | {"tropmono.finite"}
    # Without site's preloads, only parsing a letter token imports re:
    # not the import, a factorization or a Boolean closure.
    assert "re" not in _modules_after("", "-S")
    work = (
        "m = tropmono.parse_matrix('-inf 0 5; 0 -inf 0; 0 0 -inf')\n"
        "assert tropmono.evaluate(tropmono.factor(m, 'm3')) == m\n"
        "tropmono.jclasses(tropmono.closure([tropmono.boolean_image(m)]))"
    )
    assert "re" not in _modules_after(work, "-S")
    assert "re" in _modules_after("tropmono.parse_generator('X(1)', 'm3', tropmono.ZMAX)", "-S")


def test_every_export_is_its_modules_object():
    """Each name of the export table is defined at the top of its module,
    and the package's name is that very object, bound in the package
    after the first lookup.  The table is __all__, so they cannot drift."""
    src = os.path.dirname(tropmono.__file__)
    assert tropmono.__all__ == [name for names in tropmono._EXPORTS.values() for name in names]
    assert len(set(tropmono.__all__)) == len(tropmono.__all__) == 58
    for module, names in tropmono._EXPORTS.items():
        with open(os.path.join(src, f"{module}.py"), encoding="utf-8") as fh:
            defined = set().union(*map(_defined_names, ast.parse(fh.read()).body))
        mod = importlib.import_module(f"tropmono.{module}")
        for name in names:
            assert name in defined, (module, name)
            assert getattr(tropmono, name) is getattr(mod, name), name
            assert vars(tropmono)[name] is getattr(mod, name), name
    star = {}
    exec("from tropmono import *", star)
    assert set(tropmono.__all__) <= set(star) and len(set(star) - {"__builtins__"}) == 58
    assert set(tropmono.__all__) <= set(dir(tropmono))
    with pytest.raises(AttributeError, match="^module 'tropmono' has no attribute 'closures'$"):
        tropmono.closures
    # The function matrix hides the module of that name, as it always has.
    assert tropmono.matrix is importlib.import_module("tropmono.matrix").matrix
