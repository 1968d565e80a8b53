"""A line-coverage map of src/tropmono: which lines the public tests reach.

    python tests/coverage_map.py [PYTEST ARGS...]

Runs pytest in this process (on tests/ when no arguments are given) with
a sys.settrace line tracer (stdlib only; Python 3.11 has no
sys.monitoring) that records the lines of src/tropmono each test runs.
The public tests are tests/test_acceptance.py and tests/test_cli.py,
which use the library only through its public API; every other test is
a unit test.  Lines run outside any test, at import, count as reached
by the public tests, since every public entry point imports its module.
CLI subprocess children are not traced, so a line that only they run
counts as never run.  The tracer slows every traced line, so a test with
a wall-clock budget (criterion 10, the UT_5(B) orbit count) can fail
under it; the map is printed either way and the exit status is pytest's.

For each module it prints the executable lines, the lines the public
tests reach, the lines only unit tests reach and the lines never run,
then every unit-test-only line that is not part of a raise statement.
"""

import ast
import dis
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tropmono")
PUBLIC = ("test_acceptance.py", "test_cli.py")


def executable_lines(source: str, path: str):
    """Every line that starts bytecode in the module's code objects."""
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def raise_lines(source: str):
    """Every line of a raise statement."""
    return {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


class LineMap:
    """A pytest plugin that records the src/tropmono lines each group,
    the public tests or the unit tests, runs."""

    def __init__(self):
        self.hits = {"public": set(), "unit": set()}
        self.group = "public"
        self.modules = {}  # co_filename -> module file name, or None

    def module(self, filename):
        name = self.modules.get(filename)
        if name is None and filename not in self.modules:
            path = os.path.realpath(filename)
            name = os.path.basename(path) if os.path.dirname(path) == PACKAGE else None
            self.modules[filename] = name
        return name

    def trace(self, frame, event, arg):
        name = self.module(frame.f_code.co_filename)
        if name is None:
            return None
        hits = self.hits[self.group]
        hits.add((name, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                hits.add((name, frame.f_lineno))
            return local

        return local

    def pytest_runtest_protocol(self, item, nextitem):
        self.group = "public" if os.path.basename(str(item.path)) in PUBLIC else "unit"

    def pytest_runtest_logfinish(self, nodeid, location):
        self.group = "public"


def report(hits):
    print("| module | executable | public tests | unit tests only | never |")
    print("|---|---|---|---|---|")
    listed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        lines = executable_lines(source, name)
        public = {line for line in lines if (name, line) in hits["public"]}
        unit = {line for line in lines if (name, line) in hits["unit"]} - public
        never = lines - public - unit
        print(f"| {name} | {len(lines)} | {len(public)} | {len(unit)} | {len(never)} |")
        text = source.splitlines()
        listed += [f"{name}:{line}: {text[line - 1].strip()}" for line in sorted(unit - raise_lines(source))]
    print(f"\nUnit-test-only lines outside raise statements: {len(listed)}")
    for entry in listed:
        print(entry)


def main(argv):
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    plugin = LineMap()
    sys.settrace(plugin.trace)
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")], plugins=[plugin])
    finally:
        sys.settrace(None)
    report(plugin.hits)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
