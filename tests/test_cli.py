"""Command line behavior: output formats, exit codes, JSON golden files,
batch and stdin plumbing.  Everything runs in-process through main()
except one subprocess smoke test at the end.
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import tropmono
import tropmono.cli as cli
from tropmono.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# -- factor ---------------------------------------------------------------------

def test_factor_m3_x_letter(capsys):
    rc, out, err = run(["factor", "--monoid", "m3", "-inf 0 5; 0 -inf 0; 0 0 -inf"], capsys)
    assert rc == 0
    assert out == "X(5)\nverified: true\n"


def test_factor_ut_identity_is_empty_word(capsys):
    rc, out, _ = run(["factor", "--monoid", "ut", "0 -inf; -inf 0"], capsys)
    assert rc == 0
    assert out == "ε\nverified: true\n"


def test_factor_m2_dense(capsys):
    rc, out, _ = run(["factor", "--monoid", "m2", "2 5; 1 9"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "verified: true"
    assert set(lines[0].split()) <= {"A", "B", "C", "D"}


def test_factor_bad_token_exits_2(capsys):
    rc, out, err = run(["factor", "--monoid", "m3", "-inf 0 zzz; 0 -inf 0; 0 0 -inf"], capsys)
    assert rc == 2
    assert "error:" in err


def test_factor_membership_violation_exits_3(capsys):
    rc, out, err = run(["factor", "--monoid", "ut", "0 -inf; 5 0"], capsys)
    assert rc == 3
    assert "not upper triangular" in err


def test_factor_gl_rejects_non_invertible(capsys):
    rc, _, err = run(["factor", "--monoid", "gl", "0 0; -inf 0"], capsys)
    assert rc == 3


def test_factor_word_over_the_letter_limit_exits_2(capsys, monkeypatch):
    # a word prints up to the limit; one letter over, factor exits 2
    # before printing anything
    argv = ["factor", "--monoid", "m2", "2 5; 1 9", "--json"]
    rc, out, _ = run(argv, capsys)
    count = json.loads(out)["letters"]
    monkeypatch.setattr(cli, "MAX_WORD_LETTERS", count)
    assert run(argv, capsys) == (0, out, "")
    monkeypatch.setattr(cli, "MAX_WORD_LETTERS", count - 1)
    assert run(argv, capsys) == (2, "", f"error: the word has {count} letters; factor prints words of at most {count - 1}\n")


@pytest.mark.parametrize("argv", [
    ["--monoid", "m3", "--json", "--", "1000000000 0 0; 0 -inf 0; 0 0 5"],
    ["--monoid", "gl", "--", "-inf 1000000000000000000; 5 -inf"],
])
def test_factor_of_a_huge_word_exits_2_without_building_its_text(argv):
    # Words of about 4x10^11 and 10^18 letters.  The child runs with its
    # address space capped at 1 GiB, so building their text would fail
    # fast instead of filling the machine's memory.
    import resource

    from tropmono.matrix import parse_matrix
    from tropmono.semiring import ZMAX

    count = tropmono.factor(parse_matrix(argv[-1], ZMAX), argv[1]).letter_count()
    src = os.path.dirname(os.path.dirname(tropmono.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cap = 2 ** 30
    proc = subprocess.run(
        [sys.executable, "-m", "tropmono.cli", "factor", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: the word has {count} letters; factor prints words of at most {cli.MAX_WORD_LETTERS}\n"


def test_removed_permutation_letter_and_simplify_flag_exit_2(capsys):
    rc, out, err = run(["eval", "--monoid", "ut", "-n", "2", "P((1,2))"], capsys)
    assert rc == 2
    assert out == ""
    assert "bad letter token" in err
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--monoid", "u", "--simplify", "0 3 1; -inf 0 -4; -inf -inf 0"])
    assert exc.value.code == 2
    assert "--simplify" in capsys.readouterr().err


def test_factor_batch(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text("-inf 0 5; 0 -inf 0; 0 0 -inf\n-inf 0 2; 0 -inf 0; 0 0 -inf\n")
    rc, out, _ = run(["factor", "--monoid", "m3", "--batch", str(f)], capsys)
    assert rc == 0
    assert out == "X(5)\nverified: true\nX(2)\nverified: true\n"


def test_factor_batch_json_is_an_array(tmp_path, capsys):
    # one array for --batch, however many lines the file holds
    f = tmp_path / "batch.txt"
    for lines, words in ((["-inf 0 5; 0 -inf 0; 0 0 -inf", "-inf 0 2; 0 -inf 0; 0 0 -inf"], ["X(5)", "X(2)"]),
                         (["-inf 0 5; 0 -inf 0; 0 0 -inf"], ["X(5)"])):
        f.write_text("".join(ln + "\n" for ln in lines))
        rc, out, _ = run(["factor", "--monoid", "m3", "--batch", str(f), "--json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and [r["word"] for r in payload] == words


@pytest.mark.parametrize("command", ["factor", "regular"])
def test_batch_parse_errors_name_their_line(tmp_path, capsys, command):
    # lines count from 1, blank ones included; nothing reaches stdout
    f = tmp_path / "batch.txt"
    f.write_text("0 0; 0 -inf\n\n0 x; 0 0\n")
    argv = [command, "--batch", str(f)] + (["--monoid", "ut"] if command == "factor" else [])
    for extra in ([], ["--json"]):
        assert run(argv + extra, capsys) == (2, "", "error: line 3: bad zmax scalar 'x'\n")
    # the gens file of closure-like commands names its line too
    f.write_text("1 0; 0 1\n\n1 x; 0 0\n")
    assert run(["closure", "--gens-file", str(f)], capsys) == (2, "", "error: line 3: bad boolean scalar 'x'\n")


def test_factor_batch_errors_name_their_line(tmp_path, capsys, monkeypatch):
    f = tmp_path / "batch.txt"
    f.write_text("0 1; -inf 2\n3 -inf; 4 5\n")
    rc, out, err = run(["factor", "--monoid", "ut", "--batch", str(f)], capsys)
    assert (rc, out) == (3, "") and err == "error: line 2: matrix is not upper triangular: 3 -inf; 4 5\n"
    # a word over the letter limit, exit 2; a valid file prints as before
    f.write_text("-inf 0 5; 0 -inf 0; 0 0 -inf\n-inf 0 2; 0 -inf 0; 0 0 -inf\n-inf 0 9; 0 -inf 0; 0 0 -inf\n")
    argv = ["factor", "--monoid", "m3", "--batch", str(f)]
    assert run(argv, capsys) == (0, "X(5)\nverified: true\nX(2)\nverified: true\nX(9)\nverified: true\n", "")
    monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 0)
    f.write_text("0 -inf -inf; -inf 0 -inf; -inf -inf 0\n\n" + f.read_text())
    assert run(argv, capsys) == (2, "", "error: line 3: the word has 1 letters; factor prints words of at most 0\n")


def test_factor_mismatch_is_reported_and_exits_4(tmp_path, capsys, monkeypatch):
    # a word that does not multiply back is a bug; make X(2) look like one
    wrong = tropmono.matrix([[0, 0, 0]] * 3)
    monkeypatch.setattr(cli, "evaluate", lambda w: wrong if w.text() == "X(2)" else tropmono.evaluate(w))
    f = tmp_path / "batch.txt"
    f.write_text("-inf 0 5; 0 -inf 0; 0 0 -inf\n-inf 0 2; 0 -inf 0; 0 0 -inf\n")
    rc, out, err = run(["factor", "--monoid", "m3", "--batch", str(f)], capsys)
    assert rc == 4 and err == ""
    assert out == "X(5)\nverified: true\nX(2)\nverified: false\n"
    rc, out, err = run(["factor", "--monoid", "m3", "--batch", str(f), "--json"], capsys)
    assert rc == 4 and err == ""
    assert [(r["word"], r["verified"]) for r in json.loads(out)] == [("X(5)", True), ("X(2)", False)]
    rc, out, _ = run(["factor", "--monoid", "m3", "-inf 0 2; 0 -inf 0; 0 0 -inf"], capsys)
    assert rc == 4 and out == "X(2)\nverified: false\n"


def test_factor_from_file_with_row_lines(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("-inf 0 5\n0 -inf 0\n0 0 -inf\n")
    rc, out, _ = run(["factor", "--monoid", "m3", "--file", str(f)], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "X(5)"


def test_factor_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("-inf 0 5; 0 -inf 0; 0 0 -inf\n"))
    rc, out, _ = run(["factor", "--monoid", "m3"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "X(5)"


def test_empty_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    rc, _, err = run(["factor", "--monoid", "m3"], capsys)
    assert rc == 2


# -- eval / verify -----------------------------------------------------------------

def test_eval_word(capsys):
    rc, out, _ = run(["eval", "--monoid", "u", "-n", "3", "E(1,3,1) E(2,3,-4) E(1,2,3)"], capsys)
    assert rc == 0
    assert out == "0 3 1; -inf 0 -4; -inf -inf 0\n"


@pytest.mark.parametrize("monoid, n, text", [("m2", 2, "A B C D"), ("m3", 3, "A B X(2)")])
def test_eval_bare_letters_is_their_realized_fold(monoid, n, text, capsys):
    # bare letter names resolve in the monoid's alphabet; the result is the
    # mat_mul fold of the letters' own realizations
    letters = {g.text(): g for g in [*tropmono.generating_set(monoid, n).letters, tropmono.x_letter(2)]}
    expected = tropmono.identity(n)
    for t in text.split():
        expected = tropmono.mat_mul(expected, letters[t].realize(n, tropmono.ZMAX))
    rc, out, _ = run(["eval", "--monoid", monoid, text], capsys)
    assert rc == 0
    assert tropmono.parse_matrix(out) == expected


def test_eval_epsilon(capsys):
    rc, out, _ = run(["eval", "--monoid", "m3", "ε"], capsys)
    assert rc == 0
    assert out == "0 -inf -inf; -inf 0 -inf; -inf -inf 0\n"


@pytest.mark.parametrize("word", ["X(\u0663)", "E(\u0661,2,0)"])
def test_eval_non_ascii_digit_exits_2(word, capsys):
    # letter indices are ASCII digits: an Arabic-Indic three or one is no index
    rc, out, err = run(["eval", "--monoid", "m3", word], capsys)
    assert rc == 2 and out == ""
    assert "bad letter token" in err


def test_eval_foreign_letter_exits_3(capsys):
    rc, _, err = run(["eval", "--monoid", "u", "-n", "3", "X(5)"], capsys)
    assert rc == 3
    assert "outside the" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--monoid", "m2", "--semiring", "boolean", "A B"],
    ["verify", "--monoid", "ut_boolean", "-n", "2", "--semiring", "boolean", "E(1,2,1)", "1 1; 0 1"],
    # ut_boolean letters are Boolean, so a scalar of 5 is outside their semiring
    ["eval", "--monoid", "ut_boolean", "-n", "2", "Ai(1,0) E(1,2,5)"],
])
def test_eval_over_the_wrong_semiring_exits_2(argv, capsys):
    # a word's semiring is its alphabet's: --semiring is no option of the word
    # commands, and a scalar outside the alphabet's semiring is a usage error
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert ("--semiring" if "--semiring" in argv else "bad boolean scalar '5'") in err


def test_eval_ut_boolean_word(capsys):
    rc, out, _ = run(["eval", "--monoid", "ut_boolean", "-n", "2", "Ai(1,0) E(1,2,1)"], capsys)
    assert rc == 0
    assert out == "0 0; 0 1\n"
    rc, out, _ = run(["verify", "--monoid", "ut_boolean", "-n", "2", "E(1,2,1)", "1 1; 0 1"], capsys)
    assert rc == 0
    assert out == "verified: true\n"


def test_eval_needs_dimension(capsys):
    rc, _, err = run(["eval", "--monoid", "ut", "Ai(1,1)"], capsys)
    assert rc == 2
    assert "needs an explicit -n" in err


def test_verify_true_false(capsys):
    rc, out, _ = run(
        ["verify", "--monoid", "m3", "X(5)", "-inf 0 5; 0 -inf 0; 0 0 -inf"], capsys
    )
    assert rc == 0 and out == "verified: true\n"
    rc, out, _ = run(
        ["verify", "--monoid", "m3", "X(5)", "-inf 0 4; 0 -inf 0; 0 0 -inf"], capsys
    )
    assert rc == 1 and out == "verified: false\n"


# -- gens / closure / rank / irredundant ----------------------------------------------

def test_gens_ut(capsys):
    rc, out, _ = run(["gens", "--monoid", "ut", "-n", "2"], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "Ai(1,1)",
        "Ai(2,1)",
        "NEG_I",
        "E(1,2,0)",
        "Ai(1,-inf)",
        "Ai(2,-inf)",
        "letters: 6, symbolic: false",
    ]


def test_closure_report(capsys):
    rc, out, _ = run(["closure", "--monoid", "m2", "-n", "2"], capsys)
    assert rc == 0
    assert out == "elements: 16, closed: true\n"


def test_closure_cap_reported_distinctly(capsys):
    rc, out, _ = run(["closure", "--monoid", "m2", "-n", "2", "--cap", "5"], capsys)
    assert rc == 0
    assert "closed: false" in out and "cap 5 reached" in out


@pytest.mark.parametrize("cap", ["0", "-3", "3"])
@pytest.mark.parametrize("cmd", [["closure"], ["rank", "-k", "2"], ["irredundant"]])
def test_cap_below_the_seed_exits_2(cmd, cap, capsys):
    # M_2(B) starts from the identity and 3 distinct generator images, so
    # a cap under 4 cannot bound the element count
    rc, out, err = run(cmd + ["--monoid", "m2", "-n", "2", "--cap", cap], capsys)
    assert rc == 2 and out == ""
    assert f"error: cap {cap} is below the 4 elements it starts from" in err


@pytest.mark.parametrize("cmd", [["closure"], ["rank", "-k", "2"], ["irredundant"], ["gens"]])
def test_max_x_is_a_gens_option_only(cmd, capsys):
    # no command takes --max-x: over the Booleans every X(i) has the
    # image of X(0), so more X letters would only repeat a generator, and
    # gens states the whole X family by its symbolic rule
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--monoid", "m3", "--max-x", "1"])
    assert exc.value.code == 2
    assert "--max-x" in capsys.readouterr().err
    rc, out, _ = run(["gens", "--monoid", "m3"], capsys)
    assert rc == 0 and out.splitlines()[-2:] == ["X(0)", "letters: 5, symbolic: true"]


@pytest.mark.parametrize("cmd", [["closure"], ["rank", "-k", "2"], ["irredundant"]])
def test_boolean_alphabet_over_zmax_exits_2(cmd, capsys):
    # a Boolean alphabet has no tropical letters to enumerate
    rc, out, err = run(cmd + ["--monoid", "ut_boolean", "-n", "2", "--semiring", "zmax", "--json"], capsys)
    assert rc == 2 and out == ""
    assert "error: the ut_boolean alphabet is over the boolean semiring, not zmax" in err


@pytest.mark.parametrize("cmd", [["rank", "-k", "2"], ["irredundant"]])
def test_infinite_zmax_monoid_exits_2_before_enumerating(cmd, tmp_path, monkeypatch, capsys):
    # a letter with a nonzero cycle mean has pairwise distinct powers, so
    # the commands that need a closed monoid refuse without a closure
    def no_closure(*args, **kwargs):
        raise AssertionError("closure was called")

    monkeypatch.setattr(cli.finite, "closure", no_closure)
    rc, out, err = run(cmd + ["--monoid", "m2", "--semiring", "zmax"], capsys)
    assert rc == 2 and out == ""
    assert f"error: {cmd[0]} needs a finite monoid, but letter A has maximum cycle mean -1/2, not 0" in err
    f = tmp_path / "gens.txt"
    f.write_text("-inf 0; 0 -inf\n\n1 -inf; -inf 0\n")
    rc, out, err = run(cmd + ["--gens-file", str(f), "--semiring", "zmax"], capsys)
    assert rc == 2 and out == ""
    assert "but the generator on line 3 has maximum cycle mean 1, not 0" in err
    # closure is not refused: it stops at its cap
    monkeypatch.undo()
    rc, out, _ = run(["closure", "--monoid", "m2", "--semiring", "zmax", "--cap", "50"], capsys)
    assert rc == 0 and out == "elements: 50, closed: false (cap 50 reached)\n"


@pytest.mark.parametrize("cmd", [["rank", "-k", "2"], ["irredundant"]])
def test_closure_that_reaches_its_cap_is_refused_by_name(cmd, tmp_path, capsys):
    # the (1,1) entries of the generator's powers fall without bound, but
    # its maximum cycle mean is 0, so no witness refuses it up front
    f = tmp_path / "gens.txt"
    f.write_text("-1 0; -inf 0\n")
    rc, out, err = run(cmd + ["--gens-file", str(f), "--semiring", "zmax", "--cap", "50"], capsys)
    assert rc == 2 and out == ""
    assert err == f"error: {cmd[0]} needs a finite monoid, but its closure reached the cap of 50 elements\n"
    # M_3(B) has 512 elements, past a cap of 100
    rc, out, err = run(cmd + ["--monoid", "m3", "--cap", "100"], capsys)
    assert rc == 2 and out == ""
    assert err == f"error: {cmd[0]} needs a finite monoid, but its closure reached the cap of 100 elements\n"


def test_rank_refuses_a_wide_monoid_past_2_15_elements(tmp_path, capsys):
    # UT_6(B) has 2^21 elements; closing it to the default cap took 15 s
    # and 428 MB before rank refused it as if it were infinite.  rank
    # closes to one past 2^15, which UT_5(B) fills
    start = time.perf_counter()
    rc, out, err = run(["rank", "-k", "2", "--monoid", "ut_boolean", "-n", "6"], capsys)
    assert time.perf_counter() - start < 2.0
    assert rc == 2 and out == ""
    assert err == "error: rank supports monoids of at most 32768 elements, but this one has more\n"
    # 70 generators close to 121 elements with one unit and no required
    # orbit, so the rank is a search over 120 orbits: it stops at its
    # budget with exit 2, not after hours
    f = tmp_path / "gens.txt"
    gens = ["; ".join(" ".join(str(k >> (3 * i + j) & 1) for j in range(3)) for i in range(3)) for k in range(1, 71)]
    f.write_text("\n".join(gens) + "\n")
    start = time.perf_counter()
    rc, out, err = run(["rank", "-k", "2", "--gens-file", str(f)], capsys)
    assert time.perf_counter() - start < 2.0
    assert rc == 2 and out == ""
    assert err == "error: rank search gave up after 16529 generation tests on 121 elements\n"


def test_rank_of_m3_boolean_is_5(capsys):
    # four elements do not generate M_3(B) and five do, each answered
    # from the unit orbits in well under a second
    for k, verdict in ((4, "found: false"), (5, "found: true, subset: 1 2 3 4 5")):
        start = time.perf_counter()
        rc, out, _ = run(["rank", "--monoid", "m3", "-k", str(k)], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 0 and out == f"elements: 512\n{verdict}\n"


def test_closed_zmax_monoid_is_not_refused(tmp_path, capsys):
    # the 0/-inf permutation matrices of S_3 form a closed zmax monoid
    f = tmp_path / "gens.txt"
    f.write_text("-inf 0 -inf; -inf -inf 0; 0 -inf -inf\n-inf 0 -inf; 0 -inf -inf; -inf -inf 0\n")
    rc, out, _ = run(["rank", "--gens-file", str(f), "--semiring", "zmax", "-k", "2"], capsys)
    assert rc == 0 and out == "elements: 6\nfound: true, subset: 1 2\n"
    rc, out, _ = run(["irredundant", "--gens-file", str(f), "--semiring", "zmax"], capsys)
    assert rc == 0 and out == "gen 0: necessary\ngen 1: necessary\n"


def test_closure_from_gens_file(tmp_path, capsys):
    f = tmp_path / "gens.txt"
    f.write_text("1 1; 0 1\n0 0; 0 1\n1 0; 0 0\n")
    rc, out, _ = run(["closure", "--gens-file", str(f)], capsys)
    assert rc == 0
    assert out.startswith("elements:")


def test_closure_jclasses(capsys):
    rc, out, _ = run(["closure", "--monoid", "m2", "-n", "2", "--jclasses"], capsys)
    assert rc == 0
    assert out == "elements: 16, closed: true\njclasses: 4\n"


def test_rank_plain(capsys):
    rc, out, _ = run(["rank", "--monoid", "m2", "-n", "2", "-k", "2"], capsys)
    assert rc == 0
    assert out == "elements: 16\nfound: false\n"
    rc, out, _ = run(["rank", "--monoid", "m2", "-n", "2", "-k", "3"], capsys)
    assert rc == 0
    assert out.splitlines()[1].startswith("found: true, subset:")


def test_rank_above_the_rank_finds_a_generating_subset(capsys):
    # M_2(B) has rank 3, so k = 4 tests the index 4-subsets in order; the
    # reported elements, closed on their own, give all 16 elements
    rc, out, _ = run(["rank", "--monoid", "m2", "-k", "4"], capsys)
    assert rc == 0 and out == "elements: 16\nfound: true, subset: 0 1 2 3\n"
    gens = [tropmono.boolean_image(m) for m in tropmono.generating_set("m2", 2).realized()]
    fm = tropmono.closure(gens)
    assert len(fm) == 16
    assert len(tropmono.closure([fm.elements[i] for i in (0, 1, 2, 3)])) == 16


def test_irredundant_plain(capsys):
    rc, out, _ = run(["irredundant", "--monoid", "m2", "-n", "2"], capsys)
    assert rc == 0
    assert out.splitlines() == [
        "gen 0: necessary",
        "gen 1: redundant",
        "gen 2: necessary",
        "gen 3: necessary",
    ]


# -- certificates ---------------------------------------------------------------------

def test_certify_prime_x0(capsys):
    rc, out, _ = run(["certify-prime", "0 1 1; 1 0 1; 1 1 0"], capsys)
    assert rc == 0
    assert out == "prime: true\n"


def test_certify_prime_zero_2x2(capsys):
    rc, out, _ = run(["certify-prime", "0 0; 0 0"], capsys)
    assert rc == 0
    assert out == "prime: false\n"


def test_certify_prime_has_no_cap(capsys):
    # the ambient M_2(B) and M_3(B) are always closed in full: a cap would
    # only truncate them and misjudge membership
    with pytest.raises(SystemExit) as exc:
        main(["certify-prime", "--cap", "100", "0 0 0; 0 0 0; 0 0 0"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err
    rc, out, _ = run(["certify-prime", "0 0 0; 0 0 0; 0 0 0"], capsys)
    assert rc == 0
    assert out == "prime: false\n"


def test_certify_prime_rejects_units(capsys):
    rc, _, err = run(["certify-prime", "1 0; 0 1"], capsys)
    assert rc == 2
    assert "unit" in err


@pytest.mark.parametrize("argv, text, message", [
    (["factor", "--monoid", "m3", "--batch", "{f}"], "\n\n", "batch file {f} holds no matrices"),
    (["closure", "--gens-file", "{f}"], "  \n", "gens file {f} holds no matrices"),
    (["verify", "--monoid", "m3", "X(0)", "0 0; 0 0"], None, "word is 3x3 but matrix is 2x2"),
    (["closure"], None, "closure needs --gens-file or --monoid"),
    (["certify-prime", "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 0"], None, "certify-prime covers 2x2 and 3x3 matrices, got n=4"),
])
def test_commands_refuse_unusable_input(argv, text, message, tmp_path, capsys):
    f = tmp_path / "input.txt"
    if text is not None:
        f.write_text(text)
    rc, out, err = run([a.format(f=f) for a in argv], capsys)
    assert rc == 2 and out == ""
    assert err == f"error: {message.format(f=f)}\n"


def test_jrel_x(capsys):
    rc, out, _ = run(["jrel-x", "3", "-3"], capsys)
    assert rc == 0 and out == "related: true\n"
    rc, out, _ = run(["jrel-x", "3", "4"], capsys)
    assert rc == 0 and out == "related: false\n"


def test_regular_verdicts(capsys):
    rc, out, _ = run(["regular", "-inf 0 0; 0 -inf 0; 0 0 -inf"], capsys)
    assert rc == 0 and out == "regular: false\n"
    rc, out, _ = run(["regular", "0 0; 0 -inf"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "regular: true"
    assert lines[1].startswith("witness: ")
    assert lines[2] in ("variant: exact", "variant: clamped")


def test_regular_batch_json_is_an_array(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    for text, verdicts in (("0 0; 0 -inf\n-inf 0 0; 0 -inf 0; 0 0 -inf\n", [True, False]), ("0 0; 0 -inf\n", [True])):
        f.write_text(text)
        rc, out, _ = run(["regular", "--batch", str(f), "--json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and [r["regular"] for r in payload] == verdicts


# -- golden JSON ------------------------------------------------------------------------

GOLDEN_CASES = {
    "factor_m3_x5.json": ["factor", "--monoid", "m3", "-inf 0 5; 0 -inf 0; 0 0 -inf", "--json"],
    "factor_ut_identity.json": ["factor", "--monoid", "ut", "0 -inf; -inf 0", "--json"],
    "factor_m2_dense.json": ["factor", "--monoid", "m2", "2 5; 1 9", "--json"],
    "closure_m2_jclasses.json": ["closure", "--monoid", "m2", "-n", "2", "--jclasses", "--json"],
    "regular_e12.json": ["regular", "0 0 -inf; -inf 0 -inf; -inf -inf 0", "--json"],
    "regular_x0.json": ["regular", "-inf 0 0; 0 -inf 0; 0 0 -inf", "--json"],
    "jrel_x_3_m3.json": ["jrel-x", "3", "-3", "--json"],
    "rank_m2_k3.json": ["rank", "--monoid", "m2", "-n", "2", "-k", "3", "--json"],
    "gens_m3.json": ["gens", "--monoid", "m3", "--json"],
    "eval_u_word.json": ["eval", "--monoid", "u", "-n", "3", "E(1,3,1) E(2,3,-4) E(1,2,3)", "--json"],
    "verify_m3_x5_true.json": ["verify", "--monoid", "m3", "X(5)", "-inf 0 5; 0 -inf 0; 0 0 -inf", "--json"],
    "irredundant_m2.json": ["irredundant", "--monoid", "m2", "-n", "2", "--json"],
    "certify_prime_x0.json": ["certify-prime", "0 1 1; 1 0 1; 1 1 0", "--json"],
    # the cap stops the closure, so there are no J-classes to count
    "closure_m2_cap5_jclasses.json": ["closure", "--monoid", "m2", "-n", "2", "--cap", "5", "--jclasses", "--json"],
}
VERIFY_FALSE = ("verify_m3_x5_false.json", ["verify", "--monoid", "m3", "X(5)", "-inf 0 4; 0 -inf 0; 0 0 -inf", "--json"])


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_matches_golden(name, capsys):
    rc, out, _ = run(GOLDEN_CASES[name], capsys)
    assert rc == 0
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert out == fh.read()
    json.loads(out)  # stays parseable, not just byte-stable


def test_json_golden_of_a_negative_verify_exits_1(capsys):
    name, argv = VERIFY_FALSE
    rc, out, _ = run(argv, capsys)
    assert rc == 1
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert out == fh.read()


# -- README synopsis ----------------------------------------------------------------------

README = os.path.join(os.path.dirname(GOLDEN), os.pardir, "README.md")


def _readme_synopsis():
    # The fenced block whose lines all start with "tropmono ".
    with open(README, "r", encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    for block in blocks:
        lines = [ln for ln in block.splitlines() if ln.strip()]
        if lines and all(ln.startswith("tropmono ") for ln in lines):
            return [ln.split(None, 2)[1:] for ln in lines]
    raise AssertionError("README has no synopsis block")


def test_readme_synopsis_matches_the_parser():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    synopsis = _readme_synopsis()
    assert sorted(cmd for cmd, *_ in synopsis) == sorted(subs.choices)
    assert len(synopsis) == 10
    for cmd, *rest in synopsis:
        for opt in re.findall(r"(?<![\w-])--?[a-z][\w-]*", " ".join(rest)):
            assert opt in subs.choices[cmd]._option_string_actions, f"tropmono {cmd} {opt}"


def _readme_schemas():
    # The fenced block of the "JSON reports" section: one command and its
    # keys a line, then "plus <keys> under <flag>" lines for the last one.
    with open(README, "r", encoding="utf-8") as fh:
        (block,) = [b for b in fh.read().split("```")[1::2] if re.match(r"\s*factor\s+\{", b)]
    schemas, extras = {}, {}
    for ln in block.splitlines():
        row = re.match(r"(\S+)\s+\{(.*)\}$", ln)
        if row:
            cmd = row.group(1)
            schemas[cmd] = re.findall(r'"(\w+)"', row.group(2))
        elif ln.strip():
            extras[cmd] = (re.search(r"under (--[\w-]+)", ln).group(1), re.findall(r'"(\w+)"', ln))
    return schemas, extras


def test_readme_json_schemas_match_the_reports(capsys):
    # each golden example prints its command's README keys in order, and
    # together they cover every command
    schemas, extras = _readme_schemas()
    seen = set()
    for name, argv in sorted(GOLDEN_CASES.items()) + [VERIFY_FALSE]:
        rc, out, _ = run(argv, capsys)
        report = json.loads(out)
        cmd = report["command"]
        flag, more = extras.get(cmd, (None, []))
        assert list(report) == schemas[cmd] + (more if flag in argv else []), name
        seen.add(cmd)
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert seen == set(schemas) == set(subs.choices)


# -- subprocess smoke ---------------------------------------------------------------------

def test_subprocess_entry_point():
    # The child imports the same tropmono tree as this process.
    src = os.path.dirname(os.path.dirname(tropmono.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tropmono.cli", "factor", "--monoid", "m3",
         "-inf 0 5; 0 -inf 0; 0 0 -inf"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "X(5)\nverified: true\n"
