"""Generating alphabets: letter realization, cardinalities, membership,
and the letter token grammar."""

import random

import pytest

from tropmono.genset import (
    GL_A,
    GL_B,
    Generator,
    IDENTITY_LETTER,
    M2_A,
    M2_D,
    NEG_I,
    diag_letter,
    elem_letter,
    generating_set,
    gens_gl_zmax,
    gens_m2_zmax,
    gens_m3_zmax,
    gens_u_zmax,
    gens_ut_boolean,
    gens_ut_zmax,
    parse_generator,
    x_letter,
)
from tropmono.matrix import (
    MAX_DIM,
    identity,
    mat_mul,
    parse_matrix,
)
from tropmono.semiring import BOOLEAN, BOTTOM, ZMAX

from unit_reference import is_invertible


def test_ut_cardinality():
    # n of A_i(1), the -1 scalar, n(n-1)/2 elementary letters, n of A_i(-inf)
    for n in range(1, 9):
        gs = gens_ut_zmax(n)
        assert len(gs) == 2 * n + 1 + n * (n - 1) // 2
        assert len(set(gs.letters)) == len(gs)


def test_ut_letters_realize():
    gs = gens_ut_zmax(2)
    mats = gs.realized()
    expected = [
        parse_matrix("1 -inf; -inf 0"),
        parse_matrix("0 -inf; -inf 1"),
        parse_matrix("-1 -inf; -inf -1"),
        parse_matrix("0 0; -inf 0"),
        parse_matrix("-inf -inf; -inf 0"),
        parse_matrix("0 -inf; -inf -inf"),
    ]
    assert mats == expected


def test_u_alphabet_is_symbolic():
    gs = gens_u_zmax(3)
    assert gs.letters == (IDENTITY_LETTER,)
    assert gs.symbolic
    assert gs.contains(elem_letter(1, 3, 7))
    assert gs.contains(elem_letter(2, 3, -40))
    assert not gs.contains(elem_letter(3, 1, 0))  # below the diagonal
    assert not gs.contains(elem_letter(1, 1, 0))
    assert not gs.contains(elem_letter(1, 2, BOTTOM))
    # True == 1, but a bool is not a zmax scalar
    assert not gs.contains(elem_letter(1, 2, True))
    assert not gs.contains(elem_letter(1, 2, False))
    assert not gs.contains(x_letter(0))
    # n = 1 has nothing above the diagonal at all
    assert gens_u_zmax(1).symbolic is None


def test_no_alphabet_holds_a_bool_letter():
    # each bool equals a listed letter's parameter, and each is refused
    assert gens_ut_zmax(2).contains(elem_letter(1, 2, 0)) and gens_ut_zmax(2).contains(diag_letter(1, 1))
    assert not gens_ut_zmax(2).contains(elem_letter(1, 2, False))
    assert not gens_ut_zmax(2).contains(diag_letter(1, True))
    assert not gens_ut_boolean(2).contains(elem_letter(1, 2, True))
    assert not gens_ut_boolean(2).contains(diag_letter(True, 0))
    assert not gens_m3_zmax(1).contains(x_letter(True))
    assert not gens_m3_zmax().contains(elem_letter(True, 2, 0))


def own_contains(gs, g):
    # membership read off the definitions: a listed letter, its
    # parameters equal in type as well as value (so no bool stands in for
    # 1 or 0), or a member of a symbolic family: E(i,j,z) with integers
    # 1 <= i < j <= n and z for the unitriangular alphabet, X(s) with an
    # integer s >= 0 for the 3x3 one
    def same(a, b):
        return a.kind == b.kind and len(a.params) == len(b.params) and all(
            type(x) is type(y) and x == y for x, y in zip(a.params, b.params)
        )

    if any(same(g, h) for h in gs.letters):
        return True
    ints = all(type(x) is int for x in g.params)
    if gs.monoid == "u" and g.kind == "ELEM_E":
        i, j, _ = g.params
        return ints and 1 <= i < j <= gs.n
    return gs.monoid == "m3" and g.kind == "M3_X" and ints and g.params[0] >= 0


def test_contains_matches_an_own_oracle():
    # every listed letter of every alphabet, E and Ai letters with bool,
    # -inf and out-of-range parameters (i >= j, j > n), X letters with a
    # bool or a negative index, and the parameterless letters, against
    # every alphabet
    alphabets = [generating_set(m, n) for m, ns in (("ut", range(1, 9)), ("u", range(1, 9)), ("gl", range(2, 9)), ("ut_boolean", range(1, 6))) for n in ns]
    alphabets += [gens_m2_zmax(), gens_m3_zmax(), gens_m3_zmax(3)]
    scalars = (0, 1, -7, 10 ** 18, BOTTOM, True, False)
    letters = {g for gs in alphabets for g in gs.letters}
    letters |= {elem_letter(i, j, z) for i in (True, 0, 1, 2, 3) for j in (False, 1, 2, 3, 8, 9) for z in scalars}
    letters |= {diag_letter(i, v) for i in (True, 0, 1, 8, 9) for v in scalars}
    letters |= {Generator("M3_X", (s,)) for s in (0, 1, 17, 10 ** 9, -1, True, False)}
    letters |= {GL_A, GL_B, M2_A, M2_D, NEG_I, IDENTITY_LETTER}
    # a set holds one of each == class: True == 1 hides one of them
    cases = list(letters) + [elem_letter(1, 2, True), elem_letter(True, 2, 0), diag_letter(1, True), Generator("M3_X", (True,))]
    hits = 0
    for gs in alphabets:
        for g in cases:
            assert gs.contains(g) is own_contains(gs, g), (gs, g)
            hits += gs.contains(g)
    assert hits > len(alphabets)


def test_gl_letters():
    gs = gens_gl_zmax(3)
    assert gs.letters == (GL_A, GL_B)
    a, b = gs.realized()
    # A: scale slot 1 by 1, then rotate (1,2); B: scale by -1, rotate (1,2,3)
    assert a == parse_matrix("-inf 1 -inf; 0 -inf -inf; -inf -inf 0")
    assert b == parse_matrix("-inf -1 -inf; -inf -inf 0; 0 -inf -inf")
    assert is_invertible(a) and is_invertible(b)
    # n = 2: the rotation upto n-1 = 1 degenerates to the identity perm
    a2, b2 = gens_gl_zmax(2).realized()
    assert a2 == parse_matrix("1 -inf; -inf 0")
    assert b2 == parse_matrix("-inf -1; 0 -inf")


def test_gl_needs_n_at_least_2():
    try:
        gens_gl_zmax(1)
        assert False
    except ValueError:
        pass


def test_m2_letters():
    mats = gens_m2_zmax().realized()
    assert mats[0] == parse_matrix("-inf -1; 0 -inf")
    assert mats[1] == parse_matrix("1 -inf; -inf 0")
    assert mats[2] == parse_matrix("-inf -inf; -inf 0")
    assert mats[3] == parse_matrix("0 0; 0 -inf")


def test_m3_letters():
    gs = gens_m3_zmax(max_x=2)
    texts = [g.text() for g in gs]
    assert texts == ["A", "B", "E(1,2,0)", "Ai(1,-inf)", "X(0)", "X(1)", "X(2)"]
    x1 = gs.letters[5].realize(3, ZMAX)
    assert x1 == parse_matrix("-inf 0 1; 0 -inf 0; 0 0 -inf")
    assert gs.contains(x_letter(10 ** 9))
    assert not gs.contains(NEG_I)


def test_ut_boolean_letters():
    gs = gens_ut_boolean(2)
    assert gs.semiring is BOOLEAN
    mats = gs.realized()
    assert mats[0] == identity(2, BOOLEAN)
    assert mats[1] == parse_matrix("1 1; 0 1", BOOLEAN)
    assert mats[2] == parse_matrix("0 0; 0 1", BOOLEAN)
    assert mats[3] == parse_matrix("1 0; 0 0", BOOLEAN)


def test_neg_i_is_zmax_only():
    assert NEG_I.realize(2, ZMAX) == parse_matrix("-1 -inf; -inf -1")
    try:
        NEG_I.realize(2, BOOLEAN)
        assert False
    except ValueError:
        pass


def test_x_letter_is_zmax_only():
    assert x_letter(0).realize(3, ZMAX) == parse_matrix("-inf 0 0; 0 -inf 0; 0 0 -inf")
    with pytest.raises(ValueError):
        x_letter(0).realize(3, BOOLEAN)


def test_m2_letters_are_zmax_only():
    assert M2_A.realize(2, ZMAX) == parse_matrix("-inf -1; 0 -inf")
    with pytest.raises(ValueError):
        M2_A.realize(2, BOOLEAN)


def test_fixed_size_letters_reject_other_dimensions():
    for g, n in ((M2_A, 3), (M2_D, 1), (x_letter(1), 2), (x_letter(0), 4)):
        with pytest.raises(ValueError):
            g.realize(n, ZMAX)


def test_generating_sets_reject_dimensions_outside_the_limit():
    for monoid, lo in (("ut", 1), ("u", 1), ("ut_boolean", 1), ("gl", 2)):
        for n in (lo - 1, MAX_DIM + 1):
            with pytest.raises(ValueError, match=f"{MAX_DIM}, got {n}|range 1..{MAX_DIM}"):
                generating_set(monoid, n)
        assert generating_set(monoid, MAX_DIM).n == MAX_DIM


def test_x_letter_rejects_negative():
    try:
        x_letter(-1)
        assert False
    except ValueError:
        pass


@pytest.mark.parametrize("build, message", [
    (lambda: GL_A.realize(3, BOOLEAN), "the invertible-group letters live in zmax, n >= 2"),
    (lambda: GL_B.realize(1, ZMAX), "the invertible-group letters live in zmax, n >= 2"),
    (lambda: gens_m3_zmax(-1), "max_x must be >= 0"),
])
def test_letters_and_alphabets_refuse_bad_parameters(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value) == message


def test_letter_text_round_trip():
    rng = random.Random(31)
    gs_all = [
        gens_ut_zmax(4),
        gens_u_zmax(3),
        gens_gl_zmax(3),
        gens_m2_zmax(),
        gens_m3_zmax(3),
        gens_ut_boolean(3),
    ]
    for gs in gs_all:
        for g in gs.letters:
            back = parse_generator(g.text(), gs.monoid, gs.semiring)
            assert back == g, (gs.monoid, g.text())
    # symbolic members round-trip too
    for _ in range(50):
        g = elem_letter(1, rng.randint(2, 3), rng.randint(-99, 99))
        assert parse_generator(g.text(), "u", ZMAX) == g


def test_letters_are_immutable():
    # __init__ writes its slots through their own setters; every
    # assignment or deletion afterwards, of a slot or of a new name, is
    # refused and leaves the letter as it was
    g = elem_letter(1, 2, 5)
    for name, value in (("kind", "GL_A"), ("params", (1, 3, 5)), ("_vals", {}), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(AttributeError):
        g.kind = "GL_A"
    assert (g.kind, g.params, g.text()) == ("ELEM_E", (1, 2, 5), "E(1,2,5)")
    # nor can a slot be deleted, which would break hash and text for
    # every holder of a shared letter
    for name in ("kind", "params", "_vals", "other"):
        with pytest.raises(AttributeError, match="Generator is immutable"):
            delattr(GL_A, name)
    assert hash(GL_A) == hash(("GL_A", ())) and GL_A.text() == "A" and repr(GL_A) == "Generator('A')"
    assert Generator("M3_X", [7]).params == (7,)


def test_parse_generator_grammar():
    assert parse_generator("A", "m2", ZMAX).kind == "M2_A"
    assert parse_generator("A", "gl", ZMAX) is GL_A
    assert parse_generator("Ai(2,-inf)", "ut", ZMAX) == diag_letter(2, BOTTOM)
    assert parse_generator("E(1,3,-7)", "u", ZMAX) == elem_letter(1, 3, -7)
    assert parse_generator("X(4)", "m3", ZMAX) == x_letter(4)
    assert parse_generator("I", "u", ZMAX) is IDENTITY_LETTER
    # digits are ASCII only, as in scalars: no Arabic-Indic three or one;
    # trailing whitespace is refused, a newline as much as a space
    for bad in ("Q", "A", "E(1,2)", "X(-1)", "Ai(0)", "E(0,1,2", "P((1,2))", "X(\u0663)", "E(\u0661,2,0)",
                "X(1)\n", "Ai(1,0)\n", "E(1,2,3)\n", "X(1) "):
        try:
            parse_generator(bad, "ut", ZMAX)
            assert False, bad
        except ValueError:
            pass


def test_generating_set_dispatch():
    assert generating_set("ut", 4).monoid == "ut"
    assert generating_set("m2", 2).monoid == "m2"
    # m3 lists X(0) only; its symbolic rule covers every X(i)
    assert generating_set("m3", 3).letters[-1] == x_letter(0)
    for monoid, n in (("m2", 3), ("m3", 2), ("nope", 3)):
        try:
            generating_set(monoid, n)
            assert False, (monoid, n)
        except ValueError:
            pass


def test_gl_letters_generate_some_monomials():
    # a tiny closure sanity check: words in A, B stay invertible
    rng = random.Random(32)
    a, b = gens_gl_zmax(3).realized()
    m = identity(3)
    for _ in range(60):
        m = mat_mul(m, a if rng.random() < 0.5 else b)
        assert is_invertible(m)
