"""The line-coverage map (tests/coverage_map.py) on one cheap selection."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_coverage_map_splits_public_and_unit_test_lines():
    # one public CLI test and one unit test of the semiring name lookup,
    # which no CLI call makes
    selection = ["tests/test_cli.py::test_factor_m3_x_letter", "tests/test_semiring.py::test_lookup_by_name"]
    out = subprocess.run(
        [sys.executable, os.path.join("tests", "coverage_map.py"), "-q", "-p", "no:cacheprovider", *selection],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    rows = {m[0]: tuple(map(int, m[1:])) for m in re.findall(r"^\| (\w+\.py) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$", out.stdout, re.M)}
    modules = {name for name in os.listdir(os.path.join(ROOT, "src", "tropmono")) if name.endswith(".py")}
    assert set(rows) == modules
    for executable, public, unit, never in rows.values():
        assert executable == public + unit + never > 0
    # the CLI test factors a matrix, and the unit test reaches factorize not at all
    assert rows["factorize.py"][1] > 0 and rows["factorize.py"][2] == 0
    listed = out.stdout.split("Unit-test-only lines outside raise statements: ")[1].splitlines()
    assert int(listed[0]) == len(listed) - 1 > 0
    assert all(line.startswith("semiring.py:") for line in listed[1:])
    assert any(line.endswith("return _BY_NAME[name]") for line in listed[1:])
    assert not any(line.split(": ", 1)[1].startswith("raise") for line in listed[1:])
