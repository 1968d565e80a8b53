"""Factorization into generator words, one factorizer per monoid, with
multiply-back as the universal oracle: evaluate(factor(m)) must equal m
entry for entry, no tolerance.
"""

import copy
import hashlib
import itertools
import random
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropmono.factorize import (
    MembershipError,
    Word,
    _Eval,
    _IDENT,
    _M2,
    _M3_BLOCK,
    _M3_E,
    _M3_SLOTS,
    _Mono,
    _Node,
    _Plus,
    _Run,
    _UT_E,
    _eval_context,
    _gl_bits,
    _gl_perm_node,
    _gl_slots,
    _leaf_value,
    _pow,
    _power,
    _times,
    _m3_fill,
    _slot,
    _ut_slots,
    _value,
    evaluate,
    factor,
    factor_gl,
    factor_m2,
    factor_m3,
    factor_unitriangular,
    factor_ut,
    parse_word,
)
from tropmono.genset import GL_A, GL_B, M2_A, M2_C, M2_D, NEG_I, Generator, diag_letter, elem_letter, generating_set, x_letter
from tropmono.matrix import (
    _row_product,
    construct_A,
    construct_E,
    construct_P,
    count_bottoms,
    diag,
    identity,
    is_monomial,
    is_upper_triangular,
    mat_mul,
    matrix,
    parse_matrix,
)
from tropmono.semiring import BOOLEAN, BOTTOM, ZMAX

from unit_reference import inverse, is_invertible, mat_pow, own_eval, permute


def rnd_entry(rng, p_bot=0.3, lo=-20, hi=20):
    return BOTTOM if rng.random() < p_bot else rng.randint(lo, hi)


def rnd_upper(rng, n, diagonal):
    # upper triangular, diagonal() on the diagonal and entries up to
    # ±10^9 with bottom probability 0.3 above it
    return matrix([
        [diagonal() if i == j else rnd_entry(rng, 0.3, -10 ** 9, 10 ** 9) if j > i else BOTTOM for j in range(n)]
        for i in range(n)
    ])


def fold_letters(w):
    # the naive oracle for the word DAG evaluator
    semiring = generating_set(w.monoid, w.n).semiring
    m = identity(w.n, semiring)
    for g in w.letters():
        m = mat_mul(m, g.realize(w.n, semiring))
    return m


# -- words and evaluation ------------------------------------------------------

def test_empty_word_is_identity():
    w = Word("ut", 3)
    assert w.letter_count() == 0
    assert w.text() == "ε"
    assert evaluate(w) == identity(3)


def test_dag_eval_matches_naive_fold():
    # build an unbalanced shared DAG by hand and compare against the fold
    a = diag_letter(1, 1)
    e = elem_letter(1, 2, 0)
    inner = _Node((a, e, a))
    root = _Node((_pow(inner, 5), e, _pow(a, 3), inner))
    w = Word("ut", 2, root)
    assert evaluate(w) == fold_letters(w)
    assert w.letter_count() == 5 * 3 + 1 + 3 + 3


def test_pow_zero_is_identity():
    w = Word("ut", 2, _pow(diag_letter(1, 1), 0))
    assert evaluate(w) == identity(2)
    assert w.letter_count() == 0


def test_evaluate_rejects_foreign_letters():
    w = Word("u", 3, x_letter(2))
    try:
        evaluate(w)
        assert False
    except MembershipError:
        pass
    # E letters below the diagonal are not in the unitriangular alphabet
    w2 = Word("u", 3, elem_letter(2, 1, 5))
    try:
        evaluate(w2)
        assert False
    except MembershipError:
        pass


@pytest.mark.parametrize("n", range(2, 9))
def test_evaluate_rejects_bool_scalars_in_u_letters(n):
    # True == 1, but no zmax matrix holds a bool; at n >= 4 the letter's
    # value is read off its parameters, so the alphabet must refuse it
    for v in (True, False):
        with pytest.raises(MembershipError):
            evaluate(Word("u", n, _Node((elem_letter(1, 2, 3), elem_letter(1, n, v)))))
    # E(1,2,False) == E(1,2,0) and Ai(1,True) == Ai(1,1) are ut letters,
    # but no letter holds a bool
    for letter in (elem_letter(1, 2, False), diag_letter(1, True)):
        with pytest.raises(MembershipError):
            evaluate(Word("ut", n, letter))


def test_evaluate_rejects_float_scalars_in_listed_letters():
    # E(1,2,0.0) == E(1,2,0) and Ai(1,1.0) == Ai(1,1) are ut letters,
    # but no letter holds a float
    for letter in (elem_letter(1, 2, 0.0), diag_letter(1, 1.0)):
        with pytest.raises(MembershipError):
            evaluate(Word("ut", 3, letter))


@st.composite
def random_dags(draw):
    """A word over a whole alphabet, built as a DAG of shared nodes on
    top of the alphabet's letters: concatenations (empty ones included),
    powers of one node, runs of several letters, runs of one sub-word,
    several parts as one node, to a power k (k = 0 included), and one
    node of runs over one drawn body under several k, so that the pairs
    kept on the body are read back, with its flat letter count kept
    small enough to fold."""
    # Half the words use m2 or m3, whose alphabets mix permuting
    # monomial letters with dense ones; u words draw their E letters.
    name, n = draw(st.one_of(
        st.tuples(st.sampled_from(["ut", "u", "gl", "ut_boolean"]), st.integers(2, 8)),
        st.sampled_from([("m2", 2), ("m3", 3)]),
    ))
    alphabet = generating_set(name, n)
    pool = list(alphabet.letters)
    if name == "u":
        above = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for i, j in draw(st.lists(st.sampled_from(above), min_size=1, max_size=4)):
            pool.append(elem_letter(i, j, draw(st.integers(-10 ** 9, 10 ** 9))))
    letters = list(pool)
    bodies = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.integers(0, 5))
        if shape == 0:
            picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
            pool.append(_Node([pool[i] for i in picks]))
        elif shape == 1:
            pool.append(_pow(pool[draw(st.integers(0, len(pool) - 1))], draw(st.integers(0, 3))))
        elif shape == 2:
            # several letters, each repeated k times in a row; most
            # alphabets hold letters that are not diagonal
            bodies.append(_Node(draw(st.lists(st.sampled_from(letters), min_size=2, max_size=4))))
            pool.append(_Run(bodies[-1], draw(st.integers(0, 3))))
        elif shape == 3:
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=4))
            pool.append(_pow(_Node([pool[i] for i in picks]), draw(st.integers(0, 3))))
        elif shape == 4 and len(pool) > len(letters):
            # a sub-word's letters, all of them, k times over
            bodies.append(_Node((draw(st.sampled_from(pool[len(letters):])),)))
            pool.append(_Run(bodies[-1], draw(st.integers(0, 3))))
        elif bodies:
            body = draw(st.sampled_from(bodies))
            pool.append(_Node([_Run(body, k) for k in draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))]))
    w = Word(name, n, pool[-1])
    assume(w.letter_count() <= 3000)
    return w


@given(random_dags(), st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_random_dag_eval_matches_fold(w, k):
    # monomial and dense values, their mixed products and powers, against
    # the letter-by-letter left fold and against mat_pow for a large power
    assert evaluate(w) == fold_letters(w)
    assert w.text() == (" ".join(g.text() for g in w.letters()) or "ε")
    assert w.letter_count() == sum(1 for _ in w.letters())
    # every leaf the parts reach, also under k = 0
    leaves, seen, stack = set(), set(), [w.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, _Node):
            stack.extend(node.parts)
        else:
            leaves.add(node)
    assert w.distinct_letters() == leaves
    big = Word(w.monoid, w.n, _pow(w.root, k))
    assert evaluate(big) == mat_pow(evaluate(w), k)


def test_evaluate_matches_an_independent_dag_walk():
    # the ut, u and gl words of criterion 2, at every n and with large
    # entries, the m3 words of every bottom mask with {0, 1} entries and
    # of a random matrix in [-20, 20] after every second one, and m2
    # words at ±10^6, against a walk that shares no code with evaluate
    rng = random.Random(20)
    for mask in range(512):
        rows = [[BOTTOM if mask >> (3 * i + j) & 1 else rng.randint(0, 1) for j in range(3)] for i in range(3)]
        cases = [matrix(rows)]
        if mask % 2:
            cases.append(matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)]))
        for m in cases:
            w = factor_m3(m)
            assert own_eval(w) == m.rows == evaluate(w).rows
    for _ in range(200):
        m = matrix([[rnd_entry(rng, 0.2, -10 ** 6, 10 ** 6) for _ in range(2)] for _ in range(2)])
        w = factor_m2(m)
        assert own_eval(w) == m.rows == evaluate(w).rows
    big = lambda: rng.randint(-10 ** 9, 10 ** 9)  # noqa: E731
    for n in range(1, 9):
        for _ in range(2):
            m = rnd_upper(rng, n, lambda: rnd_entry(rng, 0.3, -10 ** 9, 10 ** 9))
            u = rnd_upper(rng, n, lambda: 0)
            cases = [(m, factor_ut(m)), (u, factor_unitriangular(u))]
            if n >= 2:
                img = list(range(n))
                rng.shuffle(img)
                m = mat_mul(diag([big() for _ in range(n)]), construct_P(img))
                cases.append((m, factor_gl(m)))
            for m, w in cases:
                assert own_eval(w) == m.rows == evaluate(w).rows


def test_u_and_finite_diagonal_ut_words_make_no_dense_products(monkeypatch):
    from tropmono import factorize

    calls = []

    def counting(n, semiring):
        mul = _row_product(n, semiring)

        def counted(a, b):
            calls.append(n)
            return mul(a, b)

        return counted

    monkeypatch.setattr(factorize, "_eval_context", cache(_Eval))
    monkeypatch.setattr(factorize, "_row_product", counting)
    rng = random.Random(48)
    for n in range(4, 9):
        for _ in range(10):
            m = rnd_upper(rng, n, lambda: rng.randint(-10 ** 9, 10 ** 9))
            assert evaluate(factor_ut(m)) == m
            u = rnd_upper(rng, n, lambda: 0)
            assert evaluate(factor_unitriangular(u)) == u
    assert calls == []
    # the count sees dense products: two -inf diagonal cells are two
    # dense letters
    m = diag((BOTTOM, BOTTOM, 0, 0))
    assert evaluate(factor_ut(m)) == m
    assert calls == [4]


@st.composite
def monomials_and_dense(draw):
    """Values of every kind, all n x n: two monomials, dense rows, two
    diagonal monomials made the way evaluation makes them (the unit, a
    leaf, a power of a leaf, a product of two leaves, a monomial times one
    with the inverse image), and four _Plus values, the unit plus one
    entry off the diagonal: two at any cell, two E letters above the
    diagonal.  At n = 1 there is no cell off the diagonal, so no _Plus
    values."""
    n = draw(st.integers(1, 8))
    ev = _Eval("ut", n)
    shifts = st.lists(st.integers(-50, 50), min_size=n, max_size=n)

    def mono():
        return _Mono(tuple(draw(st.permutations(range(n)))), tuple(draw(shifts)))

    def plus():
        r = draw(st.integers(0, n - 1))
        c = draw(st.sampled_from([j for j in range(n) if j != r]))
        return _Plus(r, c, draw(st.integers(-50, 50)))

    def leaf():
        letters = [diag_letter(i, 1) for i in range(1, n + 1)] + [NEG_I]
        return _leaf_value(draw(st.sampled_from(letters)), ev)

    def diagonal():
        how = draw(st.sampled_from(("unit", "leaf", "power", "product", "inverse")))
        if how == "unit":
            return ev.unit
        if how == "leaf":
            return leaf()
        if how == "power":
            return _power(leaf(), draw(st.integers(0, 10 ** 4)), ev)
        if how == "product":
            return _times(leaf(), leaf(), ev)
        m = mono()
        back = [0] * n
        for i, j in enumerate(m.img):
            back[j] = i
        return _times(m, _Mono(tuple(back), tuple(draw(shifts))), ev)

    def e_letter():
        # from n = 4 on, an E letter's leaf value is a _Plus over the unit
        i, j = draw(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))
        v = draw(st.integers(-50, 50))
        return _leaf_value(elem_letter(i, j, v), _Eval("u", n)) if n > 3 else _Plus(i - 1, j - 1, v)

    entry = st.one_of(st.just(BOTTOM), st.integers(-50, 50))
    dense = tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n))
    pluses = [plus(), plus(), e_letter(), e_letter()] if n > 1 else []
    return n, [mono(), mono()], pluses, dense, [diagonal(), diagonal()]


def mono_matrix(v):
    # diag(sh) times the permutation matrix of img, built by mat_mul
    return mat_mul(diag(v.sh), construct_P(v.img))


def value_matrix(v, n):
    if type(v) is _Mono:
        return mono_matrix(v)
    if type(v) is _Plus:
        assert v.r != v.c and v.v != BOTTOM
        rows = [list(r) for r in identity(n).rows]
        rows[v.r][v.c] = v.v
        return matrix(rows)
    return matrix(v)


@given(monomials_and_dense(), st.integers(0, 10 ** 4))
@settings(max_examples=200, deadline=None)
def test_value_products_match_mat_mul(values, k):
    # every pairing of the kinds, each diagonal and _Plus on both sides of
    # dense rows
    n, monos, pluses, dense, diagonals = values
    # evaluation's own kernels, with mat_mul for the dense product
    kernels = _Eval("ut", n)
    kernels.mul = lambda x, y: mat_mul(matrix(x), matrix(y)).rows
    lefts = [monos[0], dense, *diagonals, *pluses[0::2]]
    rights = [monos[1], dense, *diagonals, *pluses[1::2]]
    for a, b in itertools.product(lefts, rights):
        product = _times(a, b, kernels)
        assert value_matrix(product, n) == mat_mul(value_matrix(a, n), value_matrix(b, n))
        # two monomials make a monomial, anything else dense rows
        assert type(product) is (_Mono if type(a) is type(b) is _Mono else tuple)
    # a diagonal is found by its shared identity image, also after a power
    for d in diagonals:
        assert d.img is _IDENT[n] and _power(d, k, kernels).img is _IDENT[n]
        assert mono_matrix(_power(d, k, kernels)) == mat_pow(mono_matrix(d), k)
    a = monos[0]
    assert mono_matrix(_power(a, k, kernels)) == mat_pow(mono_matrix(a), k)
    ev = _Eval("ut", n)
    for p in pluses:
        assert value_matrix(_power(p, k, ev), n) == mat_pow(value_matrix(p, n), k)


def test_unrolled_3x3_kernels_match_mat_mul_on_every_image():
    # every image in S_3, with shifts that hold zeros and negatives, on
    # both sides of dense rows with -inf entries, a -inf row and a -inf
    # column: a monomial on the left gathers, on the right it scatters
    from tropmono import factorize

    ev = _Eval("m3", 3)
    assert (ev.gather, ev.scatter) == (factorize._gather3, factorize._scatter3)
    shifts = [(0, 0, 0), (0, -4, 7), (-1, -2, -3), (5, 0, -9)]
    dense = [
        ((1, BOTTOM, 3), (-4, 5, BOTTOM), (BOTTOM, 8, -9)),
        ((2, 0, -1), (BOTTOM, BOTTOM, BOTTOM), (3, -5, 6)),
        ((2, BOTTOM, -1), (4, BOTTOM, 0), (-3, BOTTOM, 6)),
    ]
    for img in itertools.permutations(range(3)):
        img = _IDENT[3] if img == _IDENT[3] else img
        for sh in shifts:
            m = mono_matrix(_Mono(img, sh))
            for d in dense:
                for product, expected in (
                    (ev.gather(img, sh, d), mat_mul(m, matrix(d))),
                    (ev.scatter(img, sh, d), mat_mul(matrix(d), m)),
                ):
                    assert type(product) is tuple
                    assert matrix(product) == expected, (img, sh, d)


def test_m3_words_evaluate_without_the_generic_kernels(monkeypatch):
    # criterion-1 traffic, as in perfbench's m3_grid: every bottom mask
    # with entries in {0, 1}, and random matrices in [-20, 20]
    from tropmono import factorize

    calls = {}

    def counting(name):
        kernel = getattr(factorize, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)

        return counted

    for name in ("_gather", "_scatter", "_gather3", "_scatter3"):
        monkeypatch.setattr(factorize, name, counting(name))
    monkeypatch.setattr(factorize, "_eval_context", cache(_Eval))
    rng = random.Random(18)
    for mask in range(512):
        grid = matrix([[BOTTOM if mask >> (3 * i + j) & 1 else rng.randint(0, 1) for j in range(3)] for i in range(3)])
        rand = matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)])
        for m in (grid, rand):
            assert evaluate(factor_m3(m)) == m
    assert set(calls) == {"_gather3", "_scatter3"}


def test_monomial_powers_with_huge_exponents_are_exact():
    for n in range(2, 7):
        # B is Ai(1,-1) times the full n-cycle, so B^n = -1 * I
        w = Word("gl", n, _pow(GL_B, n * 10 ** 20))
        assert evaluate(w) == diag((-(10 ** 20),) * n)
        for i in range(1, n + 1):
            w = Word("ut", n, _pow(diag_letter(i, 1), 10 ** 30))
            assert evaluate(w) == construct_A(i, 10 ** 30, n)

    def check_powers(monoid, n, node, m):
        # m is the sub-word's matrix, built without evaluation
        for k in (0, 1, n - 1, n, 10 ** 20 + 3):
            assert evaluate(Word(monoid, n, _pow(node, k))) == mat_pow(m, k), (monoid, n, k)

    # every value but a diagonal monomial squares and multiplies: non-diagonal
    # monomials, a _Plus from n = 4 (a u letter), and dense rows (a diagonal
    # times an E letter, and every E letter at n = 3)
    for n in range(2, 7):
        # the full n-cycle and the transposition of rows 1 and n
        for img in ((*range(1, n), 0), (n - 1, *range(1, n - 1), 0)):
            check_powers("gl", n, _gl_perm_node(img), construct_P(img))
    for n in range(4, 7):
        check_powers("u", n, _Node((elem_letter(1, n, 7),)), construct_E(1, n, n, lam=7))
        e_times_a = mat_mul(construct_A(1, 1, n), construct_E(1, 2, n, lam=0))
        check_powers("ut", n, _Node((diag_letter(1, 1), elem_letter(1, 2, 0))), e_times_a)
    e12 = construct_E(1, 2, 3, lam=0)
    check_powers("m3", 3, _Node((elem_letter(1, 2, 0),)), e12)
    check_powers("m3", 3, _Node((elem_letter(1, 2, 0), _slot(_gl_slots(3), 1, 1))), mat_mul(e12, construct_A(1, 1, 3)))


def test_cached_values_do_not_vouch_for_another_alphabet():
    # a shared concatenation, and a shared power of one letter, which keeps
    # no value of its own but reads its letter's
    for shared, scaled in (
        (_Node((diag_letter(1, 1), diag_letter(2, 1))), (1, 1, 0)),
        (_pow(diag_letter(1, 1), 3), (3, 0, 0)),
    ):
        ut = Word("ut", 3, _Node((shared, elem_letter(1, 2, 0))))
        assert evaluate(ut) == mat_mul(diag(scaled), construct_E(1, 2, 3))
        # the same node, already evaluated for ut, inside a gl word
        gl = Word("gl", 3, _Node((GL_A, shared)))
        with pytest.raises(MembershipError):
            evaluate(gl)
        # a foreign letter under a zero power is still rejected
        with pytest.raises(MembershipError):
            evaluate(Word("gl", 3, _Node((GL_A, _pow(shared, 0)))))


def test_cached_values_are_keyed_by_their_evaluation_context(monkeypatch):
    # a gl word and an m3 word over one body of the n = 3 gl slot table
    # leave its run sum under exactly their two evaluation contexts; a
    # fresh gl context at n = 3 reads neither, so it realizes the body's
    # two letters again, where the cached gl context realizes none
    from tropmono import factorize

    body = _gl_slots(3)[2]
    body._vals.clear()  # other tests evaluate it under contexts of their own
    gl = factor_gl(mat_mul(diag([0, 4, 0]), construct_P((1, 2, 0))))
    m3 = factor_m3(matrix([[0, 1, BOTTOM], [BOTTOM, 4, BOTTOM], [BOTTOM, BOTTOM, 0]]))
    for w in (gl, m3):
        assert any(type(p) is _Run and p.body is body for p in w.root.parts)
        assert evaluate(w).rows == own_eval(w)
    contexts = [_eval_context("gl", 3), _eval_context("m3", 3)]
    assert list(body._vals) == contexts
    calls, leaf = [], factorize._leaf_value

    def counted(g, ev):
        calls.append(g)
        return leaf(g, ev)

    monkeypatch.setattr(factorize, "_leaf_value", counted)
    w = Word("gl", 3, _Run(body, 5))
    assert evaluate(w) == diag([0, 5, 0]) and calls == []
    fresh = _Eval("gl", 3)
    v = _value(w.root, fresh)
    assert (v.img, v.sh) == (_IDENT[3], (0, 5, 0))
    assert sorted(g.text() for g in calls) == ["A", "B"]
    assert list(body._vals) == [*contexts, fresh]


def test_leaf_powers_match_an_independent_dag_walk():
    # A letter power is a run.  A run of a dense letter is evaluated and
    # cached on the run like any node; a run of a diagonal letter joins
    # the pending diagonal from the letter's value and is cached
    # nowhere, also when two parents share it.
    cases = []
    for n in (2, 3):
        # E letters are dense up to n = 3
        dense = _pow(elem_letter(1, 2, 7), 3)
        cases.append((Word("u", n, _Node((dense, elem_letter(1, n, -4), dense))), dense))
    for n in range(1, 9):
        dense = _pow(diag_letter(n, BOTTOM), 2)
        cases.append((Word("ut", n, _Node((_pow(NEG_I, 5), dense, _pow(diag_letter(1, 1), 4)))), dense))
    dense = _pow(M2_C, 2)
    cases.append((Word("m2", 2, _Node((_pow(M2_D, 3), dense, _pow(M2_A, 0), _pow(M2_A, 3)))), dense))
    for w, dense in cases:
        assert type(dense) is _Run
        assert evaluate(w).rows == own_eval(w)
        assert _eval_context(w.monoid, w.n) in dense._vals
    up = diag_letter(1, 1)
    shared = _pow(up, 7)
    for n in (2, 5):
        e = elem_letter(1, 2, 0)
        w = Word("ut", n, _Node((_Node((shared, e)), _Node((e, shared)), shared)))
        assert evaluate(w).rows == own_eval(w)
        assert shared._vals == {} and _eval_context("ut", n) in up._vals


@pytest.mark.parametrize("k", (0, 1, 5))
def test_foreign_letters_under_a_leaf_power_are_rejected(k):
    # monomial letters (Ai(1,1) and Ai(2,1) in gl, NEG_I in u) and a dense
    # one (X(2) in u), as the word's root, under a concatenation, and as
    # a leaf power or a plain letter between two values of the alphabet
    # (diagonal ones in gl, so the letter sits inside a run); again once
    # the letter's value is cached for another alphabet of the same n
    for monoid, n, g, side, other in (
        ("gl", 3, diag_letter(1, 1), _slot(_gl_slots(3), 1, 2), "ut"),
        ("gl", 2, diag_letter(2, 1), _pow(GL_A, 3), "ut"),
        ("u", 5, NEG_I, elem_letter(1, 2, 3), "ut"),
        ("u", 3, x_letter(2), elem_letter(1, 2, 3), "m3"),
    ):
        roots = (
            _pow(g, k),
            _Node((_pow(g, k), _pow(g, k))),
            _Node((side, _pow(g, k), side)),
            _Node((side, g, side)),
            _Run(_Node((g, g)), k),
        )
        for cached in (False, True):
            if cached:
                evaluate(Word(other, n, _pow(g, 2)))
            for root in roots:
                with pytest.raises(MembershipError):
                    evaluate(Word(monoid, n, root))
    # a negative ut slot is one run over a shared body, whose pairs the
    # body keeps per alphabet: kept for ut, they vouch for nothing in u or gl
    for n in (2, 5):
        run = _slot(_ut_slots(n), 1, -(k + 2))
        evaluate(Word("ut", n, run))
        for monoid, side in (("u", elem_letter(1, 2, 3)), ("gl", GL_A)):
            for root in (run, _Node((side, run, side)), _pow(run, 0), _Node((side, _Run(run.body, k)))):
                with pytest.raises(MembershipError):
                    evaluate(Word(monoid, n, root))


def _run_cases(n):
    """ut words over n whose nodes hold runs of diagonal values: at the
    start, in the middle and at the end of a node, a run that cancels to
    zero shifts before dense rows and before an E letter (a _Plus from
    n = 4), leaf powers with k = 0, a diagonal sub-node inside a run, and
    a run inside a node that a run repeats k times."""
    up = [diag_letter(i, 1) for i in range(1, n + 1)]
    bot = diag_letter(n, BOTTOM)
    e = elem_letter(1, n, 0) if n > 1 else bot
    words = _ut_slots(n)
    neg = _slot(words, 1, -7)
    return [
        _Node((_pow(NEG_I, 3), _pow(up[-1], 5), e, bot, _pow(up[0], 2))),
        _Node((e, _pow(up[0], 4), neg, _pow(up[-1], 0), bot, up[-1])),
        _Node((bot, e, _pow(NEG_I, 2), up[0], _pow(up[-1], 9))),
        _Node((_slot(words, 1, 6), _slot(words, 1, -6), bot, e)),
        _Node((_slot(words, n, -11), _slot(words, n, 11), e, bot)),
        _Node((_pow(up[0], 0), _pow(NEG_I, 0), e, _pow(up[-1], 0))),
        _Run(_Node((_Node((_pow(up[-1], 3), neg, _pow(NEG_I, 4), e)),)), 3),
        _Node((_pow(up[0], 10 ** 12), _Node((neg, _pow(up[-1], 2))), NEG_I)),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_diagonal_runs_match_an_independent_dag_walk(n):
    for root in _run_cases(n):
        w = Word("ut", n, root)
        assert evaluate(w).rows == own_eval(w)
    # gl: diagonal slot words around permutation words; at n = 2 the
    # letter A is the diagonal Ai(1,1), so its powers join a run
    if n > 1:
        p = _gl_perm_node((n - 1, *range(1, n - 1), 0))
        words = _gl_slots(n)
        slot = _slot(words, n, -5)
        for root in (
            _Node((_slot(words, 1, 3), p, slot, _pow(GL_A, 2), _slot(words, 1, 4), GL_B)),
            _Node((p, _slot(words, 1, 2), slot, _pow(GL_A, 0), p, _slot(words, 1, -2))),
        ):
            w = Word("gl", n, root)
            assert evaluate(w).rows == own_eval(w)


# Every slot table the factorizers read: (id, monoid, n, table, the
# slot of the n x n matrix that each table slot scales, whether it has
# -inf words).  The 2x2 block letters of m3 scale slot 2 of a 3x3 matrix.
SLOT_TABLES = (
    [(f"ut{n}", "ut", n, _ut_slots(n), range(1, n + 1), True) for n in range(1, 9)]
    + [(f"gl{n}", "gl", n, _gl_slots(n), range(1, n + 1), False) for n in range(2, 9)]
    + [
        ("m3", "m3", 3, _M3_SLOTS, (1, 2, 3), True),
        ("m2", "m2", 2, _M2.slots, (1,), False),
        ("m3_block", "m3", 3, _M3_BLOCK.slots, (2,), False),
    ]
)


@pytest.mark.parametrize("monoid, n, words, lifted, bottom", [t[1:] for t in SLOT_TABLES], ids=[t[0] for t in SLOT_TABLES])
def test_every_slot_table_spells_its_diagonal_scalings(monoid, n, words, lifted, bottom):
    # _slot(words, i, a) is a in slot i and the unit elsewhere, for both
    # signs, at |a| = 1 (a one-part body gives its part, not a run) and
    # beyond, where it is a run over the table's own body, and at -inf
    # where the table has a bottom word; a zero is no word
    for i, slot in enumerate(lifted, start=1):
        assert ((i, BOTTOM) in words) == bottom
        for a in (1, -1, 7, -7) + (BOTTOM,) * bottom:
            scaled = [0] * n
            scaled[slot - 1] = a
            w = Word(monoid, n, _slot(words, i, a))
            assert evaluate(w) == construct_A(slot, a, n) == diag(scaled), (i, a)
        for a, body in ((1, words[i]), (-1, words[-i])):
            assert (_slot(words, i, a) is body.parts[0]) == (len(body.parts) == 1)
            assert _slot(words, i, 7 * a).body is body
        assert _slot(words, i, 0) is None


@pytest.mark.parametrize("monoid, n, words, lifted", [t[1:5] for t in SLOT_TABLES], ids=[t[0] for t in SLOT_TABLES])
def test_every_slot_table_tuple_multiplies_to_a_unit_in_its_slot(monoid, n, words, lifted):
    # the parts of the bodies words[i] and words[-i] multiply out, by
    # own_eval, to +1 and -1 in the slot that slot i scales and 0
    # elsewhere, and the pair that evaluation keeps on the body, read by
    # a run over it, says the same
    for i, slot in enumerate(lifted, start=1):
        for s in (1, -1):
            body = words[s * i]
            assert type(body) is _Node
            scaled = [0] * n
            scaled[slot - 1] = s
            assert own_eval(Word(monoid, n, _Node(body.parts))) == diag(scaled).rows
            assert evaluate(Word(monoid, n, _Run(body, 2))) == diag([2 * d for d in scaled])
            assert body._vals[_eval_context(monoid, n)] == [(slot - 1, s)]


def test_a_slot_run_from_another_alphabet_is_refused():
    # the kept slot pairs belong to one alphabet: a ut slot run in a gl
    # word and a 2x2 slot run in an m3 word are refused by their letters,
    # before and after the run's body is summed for its own alphabet
    for monoid, n, own, words, side in (("gl", 3, "ut", _ut_slots(3), GL_A), ("m3", 3, "m2", _M2.slots, GL_B)):
        for warm in (False, True):
            for key in (1, -1):
                run = _Run(words[key], 5)
                if warm:
                    evaluate(Word(own, 2 if own == "m2" else n, run))
                for root in (run, _Node((side, run, side))):
                    with pytest.raises(MembershipError):
                        evaluate(Word(monoid, n, root))


def test_diagonal_runs_make_one_monomial_and_no_products(monkeypatch):
    from tropmono import factorize

    calls = {"times": 0, "mono": 0}
    times, init = factorize._times, _Mono.__init__

    def counted_times(a, b, ev):
        calls["times"] += 1
        return times(a, b, ev)

    def counted_init(self, img, sh):
        calls["mono"] += 1
        init(self, img, sh)

    monkeypatch.setattr(factorize, "_times", counted_times)
    monkeypatch.setattr(_Mono, "__init__", counted_init)
    for n in range(1, 9):
        # the letters' own values, and each slot's run sum, are cached by
        # the first n words
        for i in range(1, n + 1):
            evaluate(Word("ut", n, _slot(_ut_slots(n), i, -3)))
        # a negative slot is one run: its power is one monomial, built
        # from the slot pairs its table tuple keeps (at n = 1 and a = -1
        # the slot is the letter NEG_I, whose own value is cached)
        for i, a in itertools.product(range(1, n + 1), (-(10 ** 6), -1)):
            calls.update(times=0, mono=0)
            w = Word("ut", n, _slot(_ut_slots(n), i, a))
            assert evaluate(w) == construct_A(i, a, n)
            assert calls == {"times": 0, "mono": 0 if (n, a) == (1, -1) else 1}
        # a diagonal sub-node, its value already cached, joins the run
        sub = _slot(_ut_slots(n), n, -5)
        evaluate(Word("ut", n, sub))
        calls.update(times=0, mono=0)
        w = Word("ut", n, _Node((_pow(NEG_I, 2), sub, _pow(NEG_I, 3))))
        assert evaluate(w).rows == own_eval(w)
        assert calls == {"times": 0, "mono": 1}
    # a whole ut word: each run joins the pending diagonal, and the slot
    # scalings around each E letter cancel in it, so each E letter after
    # the first max-updates the loop's row lists in place and the final
    # flush scatters them, with no _times call; summing leaf powers one
    # product at a time made 185 calls, multiplying each conjugating
    # diagonal in made 95, multiplying dense rows by each E letter's unit
    # monomial as well as its entry made 29, and one product per E letter
    # after the first and one for the final flush made 15.  Spelling a
    # negative slot as n one-letter powers built 160 nodes, and as one
    # run 52; splicing each E letter's three parts into the root, not a
    # node of their own, leaves the 36 diagonal runs and the root.
    built = []
    for cls in (_Node, _Run):

        def counted_node(self, *args, init=cls.__init__):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_node)
    rng = random.Random(17)
    m = matrix([[rng.randint(-10 ** 6, 10 ** 6) if j >= i else BOTTOM for j in range(6)] for i in range(6)])
    w = factor_ut(m)
    assert len(built) == 37
    calls.update(times=0, mono=0)
    assert evaluate(w) == m
    assert calls["times"] == 0


def test_warm_slot_runs_make_no_sum_and_no_monomial(monkeypatch):
    # once the slot table's bodies hold their pairs, each slot run joins
    # the pending monomial straight from its body: no _run_sum call.  The gl
    # word's one _Mono is its pending monomial at the end; the ut word's
    # final flush scatters its dense rows with no _Mono and no _times
    # call.  A seeded ut n = 6 word at +-10^6 (51 root parts, 36 of them
    # slot runs) made 36 _run_sum calls and 29 products before the table,
    # and 1 _Mono and 15 _times calls before the in-place E letters and
    # the direct flush; a gl n = 6 word 6 calls and no product.
    from tropmono import factorize

    calls = dict.fromkeys(("sum", "mono", "times"), 0)
    run_sum, times, init = factorize._run_sum, factorize._times, _Mono.__init__

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(factorize, "_run_sum", counted("sum", run_sum))
    monkeypatch.setattr(factorize, "_times", counted("times", times))
    monkeypatch.setattr(_Mono, "__init__", counted("mono", init))
    rng = random.Random(17)
    ut = matrix([[rng.randint(-10 ** 6, 10 ** 6) if j >= i else BOTTOM for j in range(6)] for i in range(6)])
    gl = mat_mul(diag([rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)]), construct_P((2, 0, 5, 1, 4, 3)))
    for m, factorizer, monos in ((ut, factor_ut, 0), (gl, factor_gl, 1)):
        evaluate(factorizer(m))
        w = factorizer(m)
        calls.update(sum=0, mono=0, times=0)
        assert evaluate(w) == m
        assert calls == {"sum": 0, "mono": monos, "times": 0}


def test_run_sums_are_kept_only_for_the_shared_slot_letters(monkeypatch):
    # every slot scaling of a ut word past |a| = 1 is a run over a body of
    # the slot table, which keeps its product's nonzero (slot, shift) pairs
    # under the word's alphabet: the bodies met hold exactly their pair,
    # each summed once, and no other body of the table holds any.  A run
    # over a fresh body, equal in letters to a table body, is summed once
    # per alphabet and kept on that body alone, and stays exact; the
    # table's pairs do not change
    from tropmono import factorize

    summed, run_sum = [], factorize._run_sum

    def counted(body, ev):
        if ev not in body._vals:
            summed.append((id(body), ev))
        return run_sum(body, ev)

    monkeypatch.setattr(factorize, "_run_sum", counted)
    rng = random.Random(23)
    for n in range(2, 7):
        key, words = _eval_context("ut", n), _ut_slots(n)
        table = {id(words[s * i]): [(i - 1, s)] for i in range(1, n + 1) for s in (1, -1)}
        bodies = [words[s * i] for i in range(1, n + 1) for s in (1, -1)]
        for body in bodies:
            body._vals.pop(key, None)
        summed.clear()
        met = set()
        for _ in range(10):
            m = rnd_upper(rng, n, lambda: rng.randint(-10 ** 6, -1))
            w = factor_ut(m)
            met |= {id(p.body) for p in w.root.parts if type(p) is _Run}
            assert evaluate(w) == m
        assert met <= set(table)
        assert sorted(summed) == sorted((t, key) for t in met)
        assert all(body._vals.get(key) == (table[id(body)] if id(body) in met else None) for body in bodies)
        kept = [dict(body._vals) for body in bodies]
        fresh = _Node(words[-1].parts)
        assert fresh is not words[-1]
        summed.clear()
        for _ in range(2):
            w = Word("ut", n, _Node((_Run(fresh, 3), elem_letter(1, 2, 0), _Run(fresh, 5))))
            assert evaluate(w) == mat_mul(mat_mul(construct_A(1, -3, n), construct_E(1, 2, n, lam=0)), construct_A(1, -5, n))
            assert evaluate(w).rows == own_eval(w)
        assert summed == [(id(fresh), key)]
        # one dimension up, the same letters scale slots 1 and n + 1
        assert evaluate(Word("ut", n + 1, _Run(fresh, 3))) == diag([-3, *[0] * (n - 1), -3])
        assert summed == [(id(fresh), key), (id(fresh), _eval_context("ut", n + 1))]
        assert fresh._vals == {key: [(0, -1)], _eval_context("ut", n + 1): [(0, -1), (n, -1)]}
        assert [dict(body._vals) for body in bodies] == kept


def test_e_letters_are_dense_up_to_n_3_and_an_entry_from_4():
    # an E letter's value is built from its entry, without realizing the
    # letter: dense rows where the unrolled dense product is faster, an
    # entry over the unit from n = 4; a Boolean one is realized
    for n in range(2, 9):
        for monoid, i, j, v in (("ut", 1, n, 0), ("ut", n - 1, n, 0), ("u", 1, n, -7), ("u", 1, 2, 10 ** 12)):
            val = _leaf_value(elem_letter(i, j, v), _Eval(monoid, n))
            assert type(val) is (tuple if n <= 3 else _Plus)
            assert value_matrix(val, n) == construct_E(i, j, n, lam=v)
        boolean = _leaf_value(elem_letter(1, n, 1), _Eval("ut_boolean", n))
        assert boolean == construct_E(1, n, n, BOOLEAN, 1).rows
    assert _leaf_value(elem_letter(1, 2, 0), _Eval("m3", 3)) == construct_E(1, 2, 3, lam=0).rows


def test_x_letters_are_read_off_their_index():
    # an X letter's value is its rows, built from its index without
    # realizing the letter
    for s in (0, 1, 17, 10 ** 18):
        assert _leaf_value(x_letter(s), _Eval("m3", 3)) == x_letter(s).realize(3, ZMAX).rows


@st.composite
def commuting_dags(draw):
    """ut and u words at n = 4..8 whose nodes mix E letters with pending
    diagonals: leaf powers (k = 0 included), nested diagonal sub-nodes,
    a slot scaling and its inverse (a run that sums to zero), E letters
    conjugated by slot scalings, a dense bottom letter that meets a
    pending diagonal, and nodes to a power k (k = 0 included)."""
    name, n = draw(st.sampled_from(["ut", "u"])), draw(st.integers(4, 8))
    above = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    slots = st.integers(1, n)
    nonzero = st.integers(-6, 5).map(lambda a: a if a < 0 else a + 1)
    words = _ut_slots(n)

    def e_letter():
        i, j = draw(st.sampled_from(above))
        return elem_letter(i, j, 0 if name == "ut" else draw(st.integers(-10 ** 6, 10 ** 6)))

    def diagonal():
        how = draw(st.integers(0, 3))
        if how == 0:
            return _pow(draw(st.sampled_from([NEG_I, *(diag_letter(i, 1) for i in range(1, n + 1))])), draw(st.integers(0, 4)))
        i, a = draw(slots), draw(nonzero)
        if how == 1:
            return _slot(words, i, a)
        if how == 2:
            return _Node((_slot(words, i, a), _slot(words, draw(slots), draw(nonzero))))
        return _Node((_slot(words, i, a), _slot(words, i, -a)))

    def conjugate():
        # slot(i, a) E(i, j, 0) slot(i, -a), as factor_ut writes E(i, j, a)
        i, j = draw(st.sampled_from(above))
        a = draw(nonzero)
        return _Node((_slot(words, i, a), elem_letter(i, j, 0), _slot(words, i, -a)))

    pieces = [e_letter]
    if name == "ut":
        pieces += [diagonal, diagonal, conjugate, lambda: diag_letter(draw(slots), BOTTOM)]
    pool = [e_letter()]
    for _ in range(draw(st.integers(1, 6))):
        parts = []
        for _ in range(draw(st.integers(1, 5))):
            if draw(st.booleans()):
                parts.append(draw(st.sampled_from(pieces))())
            else:
                parts.append(draw(st.sampled_from(pool)))
        pool.append(_pow(_Node(parts), draw(st.sampled_from([1, 1, 1, 0, 2, 3]))))
    w = Word(name, n, pool[-1])
    assume(w.letter_count() <= 3000)
    return w


@given(commuting_dags())
@settings(max_examples=150, deadline=None)
def test_diagonals_commute_past_e_letters(w):
    # the pending diagonal moves each E letter's entry by d[r] - d[c]; the
    # letter-by-letter product shares no code with it
    assert evaluate(w) == fold_letters(w)


@st.composite
def letter_texts(draw):
    """(monoid, n, text): a flat word of up to 30 letter tokens, written
    out by hand.  ut and u at n = 2..8, ut over Ai(i,1), Ai(i,-inf),
    NEG_I and E(i,j,0), u over I and E(i,j,z) with z up to +-10^9, so E
    letters meet pending diagonals, -inf letters and each other; and gl,
    m2 and m3 over their letters and X(s)."""
    name = draw(st.sampled_from(["ut", "u", "gl", "m2", "m3"]))
    n = {"m2": 2, "m3": 3}.get(name) or draw(st.integers(2, 8))
    above = st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    slot = st.integers(1, n)
    if name == "ut":
        token = st.one_of(
            slot.map("Ai({},1)".format),
            slot.map("Ai({},-inf)".format),
            st.just("NEG_I"),
            above.map(lambda ij: "E({},{},0)".format(*ij)),
        )
    elif name == "u":
        token = st.one_of(
            st.just("I"),
            st.tuples(above, st.integers(-10 ** 9, 10 ** 9)).map(lambda t: "E({},{},{})".format(*t[0], t[1])),
        )
    elif name == "m3":
        token = st.one_of(
            st.sampled_from(["A", "B", "E(1,2,0)", "Ai(1,-inf)"]),
            st.integers(0, 10 ** 9).map("X({})".format),
        )
    else:
        token = st.sampled_from(["A", "B", "C", "D"] if name == "m2" else ["A", "B"])
    return name, n, " ".join(draw(st.lists(token, max_size=30)))


@given(letter_texts())
@settings(max_examples=300, deadline=None)
def test_parsed_letter_texts_evaluate_to_their_letter_fold(case):
    # the eval and verify path of the CLI: a letter text, parsed, is the
    # letter-by-letter mat_mul product of its letters and prints back as
    # written
    monoid, n, text = case
    w = parse_word(text, monoid, n)
    assert evaluate(w) == fold_letters(w)
    assert w.text() == (text or "ε")


def _cached_values(roots):
    # a plain copy of the cached values of every node and letter under
    # roots, by id; a _Mono or _Plus as its fields, since they have no ==
    def plain(v):
        if type(v) is _Mono:
            return ("mono", v.img, v.sh)
        if type(v) is _Plus:
            return ("plus", v.r, v.c, v.v)
        return copy.deepcopy(v)

    out, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.extend(node)
        elif id(node) not in out:
            out[id(node)] = {key: plain(v) for key, v in node._vals.items()}
            stack.extend(getattr(node, "parts", ()))
    return out


def test_in_place_e_letters_write_no_cached_value():
    # From n = 4 an E letter over the unit max-updates one column of the
    # part loop's own row lists in place, and the lists are frozen before
    # any other product and before the value is cached.  Seeded ut and u
    # words at n = 4..8 (entries up to +-10^9, zeros and -inf), gl and m3
    # words, and hand-built n = 4, 5 words that reach that update from
    # every side each evaluate to their product.  Then each is built
    # again, fresh nodes over the same shared and cached sub-words, and
    # both words evaluate to that product once more: every value cached
    # by the first pass, on the shared nodes and on the first words'
    # nodes, is left as it was.
    rng = random.Random(34)

    def entry():
        return rng.choice((0, BOTTOM, rng.randint(-10 ** 9, 10 ** 9), rng.randint(-10 ** 9, 10 ** 9)))

    builds = []  # (a word builder, the word's product or None for own_eval's)
    for n in range(4, 9):
        for _ in range(4):
            ut = matrix([[entry() if j >= i else BOTTOM for j in range(n)] for i in range(n)])
            u = matrix([[0 if i == j else entry() if j > i else BOTTOM for j in range(n)] for i in range(n)])
            builds += [(lambda m=ut: factor_ut(m), None), (lambda m=u: factor_unitriangular(m), None)]
        img = list(range(n))
        rng.shuffle(img)
        gl = mat_mul(diag([rng.randint(-9, 9) for _ in range(n)]), construct_P(img))
        builds.append((lambda m=gl: factor_gl(m), None))
    for _ in range(20):
        m3 = matrix([[entry() for _ in range(3)] for _ in range(3)])
        builds.append((lambda m=m3: factor_m3(m), None))
    for n in (4, 5):
        key, e, slots = _eval_context("ut", n), elem_letter, _ut_slots(n)
        # dense sub-words, frozen from the loop's row lists or scattered,
        # and a shared letter's rows
        dense = _Node((e(1, 2, 5), e(2, n, -3)))
        scaled = _Node((_UT_E[1, 2], _UT_E[2, n], _slot(slots, 1, 3)))
        bottom = _Node((diag_letter(2, BOTTOM), _UT_E[1, 2]))
        ae = _Node((diag_letter(1, 1), _UT_E[1, 2]))
        for monoid, parts in (
            ("u", (e(1, 2, 4), e(2, 3, -1), e(1, 3, 9))),  # first in a node, then after a _Plus leaf
            ("u", (dense,)),
            ("u", (dense, e(1, n, 7), dense, e(2, 3, 1))),  # after cached dense rows
            ("ut", (ae, _UT_E[2, 3], _UT_E[1, n])),  # after a diagonal times an E letter, scattered
            ("ut", (scaled, _UT_E[1, n], scaled, _UT_E[2, 3])),
            ("ut", (bottom, _UT_E[1, 3], diag_letter(1, BOTTOM), _UT_E[1, 2])),  # after a letter's rows
            ("ut", (_slot(slots, 3, 2), _UT_E[1, 3], _UT_E[2, 3], scaled)),  # moved past a pending diagonal
        ):
            builds.append((lambda monoid=monoid, n=n, parts=parts: Word(monoid, n, _Node(parts)), None))
        # a permutation value, which no n >= 4 alphabet with E letters
        # spells, planted in fresh nodes' caches
        swap, zero_swap = _Node(()), _Node(())
        swap._vals[key] = _Mono((1, 0, *range(2, n)), (3, -2, *[0] * (n - 3), 5))
        zero_swap._vals[key] = _Mono((1, 0, *range(2, n)), (0,) * n)
        for parts in (
            (swap, _UT_E[1, 2], _UT_E[2, n]),  # after a pending permutation
            (scaled, _UT_E[2, 3], swap, _UT_E[1, n], _UT_E[1, 2]),  # dense, then the permutation
            (_UT_E[1, 3], zero_swap, zero_swap, _UT_E[2, 3]),  # a pending unit, dropped
        ):
            expected = identity(n)
            for part in parts:
                v = part._vals.get(key)
                expected = mat_mul(expected, mono_matrix(v) if type(v) is _Mono else evaluate(Word("ut", n, part)))
            builds.append((lambda n=n, parts=parts: Word("ut", n, _Node(parts)), expected.rows))
    first = [build() for build, _ in builds]
    products = [own_eval(w) if expected is None else expected for w, (_, expected) in zip(first, builds)]
    for w, product in zip(first, products):
        assert evaluate(w).rows == product
    shared = [_UT_E, _M3_E, _M3_SLOTS, *(_ut_slots(n) for n in range(4, 9)), *(_gl_bits(n) for n in range(4, 9))]
    roots = [tuple(d.values()) for d in shared] + [w.root for w in first]
    before = _cached_values(roots)
    units = [_eval_context("ut", n).unit for n in range(1, 9)]
    for w, (build, _), product in zip(first, builds, products):
        again = build()
        assert again.root is not w.root
        assert evaluate(w).rows == evaluate(again).rows == product
    assert _cached_values(roots) == before
    # each alphabet's unit is still the zero-shift identity
    for n, u in enumerate(units, start=1):
        assert u is _eval_context("ut", n).unit
        assert (u.img, u.sh) == (_IDENT[n], (0,) * n)


def test_m3_words_make_no_more_products_than_before(monkeypatch):
    # criterion-1 traffic as in test_m3_words_evaluate_without_the_generic_kernels:
    # the monomial parts between two dense values compose into one
    # pending monomial, which multiplies in with one product, and a
    # fresh sub-word is spliced into its parent, so a run of unit letters
    # joins the pending monomial across sub-word ends.  Both counts may
    # only fall (measured in a fresh process; cached shared sub-words
    # lower them).  Products are counted as kernel calls, the dense
    # product and the two monomial-times-dense kernels: 5664 (mul 2089,
    # gather 910, scatter 2665).  The pending monomial flushes with one
    # direct gather or scatter, and the part loop multiplies two dense
    # values with the dense product itself, so _times runs only in the
    # powers of permutation words, 4 times; multiplying dense values
    # through _times made 2093 calls, and flushing through a _Mono and
    # _times 5708.  Multiplying every diagonal value in as it came
    # made 13483 _times calls, flushing a pending diagonal at the end of
    # each fresh sub-word 12956, holding back only the diagonal values,
    # each permutation value one product, 11499, and the pending
    # monomial without shared adjacent-swap nodes 5711.
    from tropmono import factorize

    calls = dict.fromkeys(("times", "mul", "gather", "scatter"), 0)

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    ev = _eval_context("m3", 3)
    monkeypatch.setattr(factorize, "_times", counted("times", factorize._times))
    for name in ("mul", "gather", "scatter"):
        monkeypatch.setattr(ev, name, counted(name, getattr(ev, name)))
    rng = random.Random(18)
    for mask in range(512):
        grid = matrix([[BOTTOM if mask >> (3 * i + j) & 1 else rng.randint(0, 1) for j in range(3)] for i in range(3)])
        rand = matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)])
        for m in (grid, rand):
            assert evaluate(factor_m3(m)) == m
    assert calls["mul"] + calls["gather"] + calls["scatter"] <= 5664
    assert calls["times"] <= 4


def test_unit_runs_compose_into_one_pending_monomial(monkeypatch):
    # slot runs and permutation words between two dense values compose
    # into one pending monomial without a product, and it multiplies in
    # with one direct gather or scatter, not through _times, where a
    # dense value or the end meets it; each part's own value is cached
    # first, so only the root is counted
    from tropmono import factorize

    calls = dict.fromkeys(("times", "mul", "gather", "scatter"), 0)

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(factorize, "_times", counted("times", factorize._times))
    ev = _eval_context("m3", 3)
    for name in ("mul", "gather", "scatter"):
        monkeypatch.setattr(ev, name, counted(name, getattr(ev, name)))
    for n in range(2, 7):
        words, img = _gl_slots(n), tuple(range(n - 1, -1, -1))
        perm = _gl_perm_node(img)
        for sub in (words[1].parts[0], words[-n].parts[0], perm):
            evaluate(Word("gl", n, sub))
        w = Word("gl", n, _Node((_slot(words, 1, 5), _slot(words, n, -3), perm)))
        calls["times"] = 0
        m = mat_mul(diag([5, *[0] * (n - 2), -3]), construct_P(img))
        assert evaluate(w).rows == own_eval(w) == m.rows
        assert calls["times"] == 0
    # P12 slot(2,5) E(1,2,0) slot(2,-5) P13 P12: the dense letter meets one
    # pending monomial on each side, a gather on its left and a scatter on
    # its right (through _Mono and _times these were 2 _times calls)
    p12, p13, e12 = _gl_perm_node((1, 0, 2)), _gl_perm_node((2, 1, 0)), elem_letter(1, 2, 0)
    for sub in (p12, p13, e12, _M3_SLOTS[2].parts[0], _M3_SLOTS[-2].parts[0]):
        evaluate(Word("m3", 3, sub))
    w = Word("m3", 3, _Node((p12, _slot(_M3_SLOTS, 2, 5), e12, _slot(_M3_SLOTS, 2, -5), p13, p12)))
    calls.update(times=0, mul=0, gather=0, scatter=0)
    assert evaluate(w).rows == own_eval(w)
    assert calls == {"times": 0, "mul": 0, "gather": 1, "scatter": 1}


def test_module_caches_do_not_grow_with_entry_values():
    """The module-level tables are keyed by structure only (dimension,
    permutation, slot, bottom mask, alphabet), never by entry values: once
    every structural key is covered, factoring and evaluating fresh
    random matrices with large entries adds nothing to any of them."""
    from tropmono import factorize, genset

    sizes_n = (3, 4, 5, 6)
    for mask in range(512):
        _m3_fill(mask)
    for n in sizes_n:
        for img in itertools.permutations(range(n)):
            for d in (1, -1):
                m = mat_mul(diag([d] * n), construct_P(img))
                assert evaluate(factor_gl(m)) == m
    rng = random.Random(108)

    def fresh(count):
        for _ in range(count):
            kind = rng.choice(("u", "ut", "gl", "m3"))
            n = 3 if kind == "m3" else rng.choice(sizes_n)
            big = lambda: rng.randint(-10 ** 6, 10 ** 6)  # noqa: E731
            if kind == "m3":
                rows = [[BOTTOM if rng.random() < 0.3 else big() for _ in range(3)] for _ in range(3)]
            elif kind == "gl":
                img = list(range(n))
                rng.shuffle(img)
                rows = mat_mul(diag([big() for _ in range(n)]), construct_P(img)).rows
            else:
                rows = [
                    [(0 if kind == "u" else big()) if i == j else big() if j > i else BOTTOM for j in range(n)]
                    for i in range(n)
                ]
            m = matrix(rows)
            assert evaluate(factor(m, kind)) == m

    def sizes():
        # every dict and every functools.cache table of the two modules
        out = {}
        for mod in (factorize, genset):
            for name, v in vars(mod).items():
                if isinstance(v, dict) and not name.startswith("__"):
                    out[f"{mod.__name__}.{name}"] = len(v)
                elif hasattr(v, "cache_info"):
                    out[f"{mod.__name__}.{name}"] = v.cache_info().currsize
        return out

    fresh(100)
    after_100 = sizes()
    tables = ("_eval_context", "_gl_adjacent_node", "_gl_bits", "_gl_perm_node", "_gl_slots", "_m3_fill", "_ut_slots")
    assert {f"tropmono.factorize.{name}" for name in tables} <= set(after_100)
    fresh(200)
    assert sizes() == after_100


def test_word_text_round_trip():
    for monoid, n, text in (
        ("m3", 3, "A B E(1,2,0) X(7) Ai(1,-inf)"),
        ("ut", 3, "Ai(1,1) NEG_I E(2,3,0) Ai(2,-inf)"),
        ("u", 3, "E(1,3,1) E(2,3,-4) E(1,2,3)"),
        ("m2", 2, "A B C D"),
        ("gl", 4, "A B B A"),
        ("u", 2, "ε"),
    ):
        w = parse_word(text, monoid, n)
        assert w.text() == text
        assert parse_word(w.text(), monoid, n).text() == text


def test_parse_word_reads_scalars_over_the_alphabet_semiring():
    w = parse_word("Ai(1,0) E(1,2,1)", "ut_boolean", 2)
    assert evaluate(w) == matrix([[0, 0], [0, 1]], BOOLEAN)
    # a monoid without an alphabet at this n fails when the word is read
    with pytest.raises(ValueError):
        parse_word("A", "m2", 3)


# -- upper triangular -----------------------------------------------------------

def test_factor_ut_examples():
    m = parse_matrix("0 -inf; -inf 0")
    w = factor_ut(m)
    assert w.text() == "ε"
    assert evaluate(w) == m
    m2 = parse_matrix("3 5; -inf -2")
    w2 = factor_ut(m2)
    assert evaluate(w2) == m2
    # a bottom diagonal slot and a bottom cell above it
    m3 = parse_matrix("-inf 4; -inf 0")
    assert evaluate(factor_ut(m3)) == m3


def test_factor_ut_random():
    rng = random.Random(101)
    for n in range(1, 7):
        for _ in range(300):
            rows = [
                [rnd_entry(rng) if j >= i else BOTTOM for j in range(n)]
                for i in range(n)
            ]
            m = matrix(rows)
            w = factor_ut(m)
            assert evaluate(w) == m, m
            # every letter really comes from the finite ut alphabet
            alph = generating_set(w.monoid, w.n)
            for g in w.distinct_letters():
                assert g in alph.letters


def test_factor_ut_rejects():
    try:
        factor_ut(parse_matrix("0 -inf; 1 0"))
        assert False
    except MembershipError:
        pass
    try:
        factor_ut(matrix([[1, 1], [0, 1]], BOOLEAN))
        assert False
    except MembershipError:
        pass


@pytest.mark.parametrize("factorizer, m, message", [
    (factor_unitriangular, identity(2, BOOLEAN), "factor_unitriangular expects a zmax matrix"),
    (factor_gl, identity(2, BOOLEAN), "factor_gl expects a zmax matrix"),
    (factor_m2, identity(2, BOOLEAN), "factor_m2 expects a zmax matrix"),
    (factor_m3, identity(3, BOOLEAN), "factor_m3 expects a zmax matrix"),
    (factor_m3, identity(2, ZMAX), "factor_m3 expects 3x3, got 2x2"),
])
def test_factorizers_refuse_boolean_and_wrong_size_matrices(factorizer, m, message):
    with pytest.raises(MembershipError) as exc:
        factorizer(m)
    assert str(exc.value) == message


# -- unitriangular ----------------------------------------------------------------

def test_factor_unitriangular_example():
    m = parse_matrix("0 3 1; -inf 0 -4; -inf -inf 0")
    w = factor_unitriangular(m)
    assert w.text() == "E(1,3,1) E(2,3,-4) E(1,2,3)"
    assert evaluate(w) == m


def test_factor_unitriangular_single_letter():
    m = construct_E(1, 3, 3, lam=-2)
    w = factor_unitriangular(m)
    assert w.text() == "E(1,3,-2)"
    assert w.letter_count() == 1


def test_factor_unitriangular_random():
    rng = random.Random(102)
    for n in range(1, 7):
        for _ in range(200):
            rows = [
                [0 if j == i else (rnd_entry(rng) if j > i else BOTTOM) for j in range(n)]
                for i in range(n)
            ]
            m = matrix(rows)
            w = factor_unitriangular(m)
            assert evaluate(w) == m
            # letter count is the number of finite strictly-upper cells
            finite_upper = sum(
                1 for i in range(n) for j in range(i + 1, n) if rows[i][j] != BOTTOM
            )
            assert w.letter_count() == finite_upper


def test_factor_unitriangular_rejects_scaled_diagonal():
    try:
        factor_unitriangular(parse_matrix("1 0; -inf 0"))
        assert False
    except MembershipError:
        pass


# -- the invertible group ----------------------------------------------------------

def test_factor_gl_identity_and_letters():
    from tropmono.genset import gens_gl_zmax

    for n in (2, 3, 4, 5):
        a, b = gens_gl_zmax(n).realized()
        for m in (identity(n), a, b, mat_mul(a, b), mat_mul(b, a)):
            w = factor_gl(m)
            assert evaluate(w) == m
            # only the two group letters may appear
            assert {g.text() for g in w.distinct_letters()} <= {"A", "B"}


def test_factor_gl_random():
    rng = random.Random(103)
    for n in (2, 3, 4, 5, 6):
        for _ in range(120):
            img = list(range(n))
            rng.shuffle(img)
            m = mat_mul(diag([rng.randint(-15, 15) for _ in range(n)]), construct_P(img))
            assert is_invertible(m)
            w = factor_gl(m)
            assert evaluate(w) == m


def test_factor_gl_rejects_non_invertible():
    for bad in (parse_matrix("0 0; -inf 0"), parse_matrix("-inf -inf; -inf -inf")):
        try:
            factor_gl(bad)
            assert False
        except MembershipError:
            pass
    try:
        factor_gl(matrix([[0]]))
        assert False
    except MembershipError:
        pass


# -- full 2x2 ------------------------------------------------------------------------

def test_factor_m2_example():
    m = parse_matrix("2 5; 1 9")
    w = factor_m2(m)
    assert evaluate(w) == m
    assert {g.text() for g in w.distinct_letters()} <= {"A", "B", "C", "D"}


def test_factor_m2_exhaustive_small_grid():
    # all 2x2 matrices with entries in {-inf, -1, 0, 1}: 256 cases
    vals = (BOTTOM, -1, 0, 1)
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    m = matrix([[a, b], [c, d]])
                    w = factor_m2(m)
                    assert evaluate(w) == m, m


def test_factor_m2_random():
    rng = random.Random(104)
    for _ in range(2000):
        m = matrix([[rnd_entry(rng) for _ in range(2)] for _ in range(2)])
        assert evaluate(factor_m2(m)) == m


def test_factor_m2_rejects_wrong_shape():
    try:
        factor_m2(identity(3))
        assert False
    except MembershipError:
        pass


# -- full 3x3 -------------------------------------------------------------------------

def test_factor_m3_x_letters_come_back_as_themselves():
    for s in (0, 3, 7):
        m = parse_matrix(f"-inf 0 {s}; 0 -inf 0; 0 0 -inf")
        w = factor_m3(m)
        assert w.text() == f"X({s})"
        assert evaluate(w) == m


def test_factor_m3_negative_corner_uses_mirror_letter():
    # the corner matrix with parameter -9 is a monomial conjugate of X(9),
    # so its word must pull in X(9) rather than any nonexistent X(-9)
    m = parse_matrix("-inf 0 3; 2 -inf 0; 0 4 -inf")
    # (x, y, z) = (b-a, c-d, f-e) after stripping: s = sum < 0 for this one?
    w = factor_m3(m)
    assert evaluate(w) == m
    m2 = parse_matrix("-inf 0 -9; 0 -inf 0; 0 0 -inf")
    w2 = factor_m3(m2)
    assert evaluate(w2) == m2
    assert "X(9)" in w2.text().split()


def test_factor_m3_letter_legality():
    rng = random.Random(105)
    for _ in range(300):
        m = matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)])
        w = factor_m3(m)
        alph = generating_set(w.monoid, w.n)
        for g in w.distinct_letters():
            assert alph.contains(g), g.text()
        assert evaluate(w) == m


def test_factor_m3_random_heavy():
    rng = random.Random(106)
    for _ in range(4000):
        m = matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)])
        assert evaluate(factor_m3(m)) == m


def test_factor_m3_structured_families():
    # upper triangular, block patterns, monomials, single finite cells:
    # the dispatcher's edge branches
    cases = [
        "0 1 2; -inf 0 3; -inf -inf 0",
        "5 -inf -inf; -inf -2 -inf; -inf -inf 0",
        "-inf 7 -inf; 4 -inf -inf; -inf -inf 1",
        "-inf -inf -inf; -inf -inf -inf; -inf -inf -inf",
        "3 -inf -inf; -inf -inf -inf; -inf -inf -inf",
        "-inf -inf 5; -inf -inf -inf; -inf -inf -inf",
        "0 0 0; 0 0 0; 0 0 0",
        "1 2 3; 4 5 6; 7 8 9",
        "-inf 1 1; 1 -inf 1; 1 1 -inf",
        "-inf -inf 2; -inf 3 -inf; 4 -inf -inf",
        "0 -inf -inf; 0 -inf -inf; 0 -inf -inf",
        "-inf 5 6; -inf -inf -inf; -inf 2 1",
    ]
    for text in cases:
        m = parse_matrix(text)
        assert evaluate(factor_m3(m)) == m, text


def test_factor_m3_route_table_matches_first_hit_search():
    # Every bottom mask against a brute-force search on a matrix with
    # that mask: invertible patterns are group words, whose normal form
    # is diagonal; otherwise the first (s, t) in lexicographic order
    # making P_s m P_t upper triangular (three or more bottoms), then
    # scalar-plus-block (four or more).  The remaining branches must at
    # least land on their normal forms.  Every table entry also holds
    # the step that gathers that form.
    perms = list(itertools.permutations(range(3)))

    def is_block(u):
        r = u.rows
        return r[0][1] == r[0][2] == r[1][0] == r[2][0] == BOTTOM

    forms = {
        "split-row": [(3, 1), (3, 2)],
        "split-col": [(1, 3), (2, 3)],
        "x": [(1, 1), (2, 2), (3, 3)],
        "clear": [(2, 3)],
        "dense": [],
    }
    distinct = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    distinct_flat = sum(distinct.rows, ())
    for mask in range(512):
        m = matrix([[BOTTOM if mask >> (3 * i + j) & 1 else 0 for j in range(3)] for i in range(3)])
        z = count_bottoms(m)
        expected = None
        if is_invertible(m):
            # m P_t is diagonal for t the inverse of m's permutation
            img, _ = is_monomial(m)
            expected = ("gl", (0, 1, 2), inverse(img))
        for branch, least, shape in (("ut", 3, is_upper_triangular), ("block", 4, is_block)):
            if expected is None and z >= least:
                hits = [(s, t) for s in perms for t in perms if shape(permute(m, s, t))]
                if hits:
                    expected = (branch, *hits[0])
        branch, s, t, (rows, left, right) = _m3_fill(mask)
        # The stored getters gather P_s m P_t out of m's nine entries, and
        # the stored words are P_{s^-1} and P_{t^-1}.
        assert tuple(row(distinct_flat) for row in rows) == permute(distinct, s, t).rows
        assert left is _gl_perm_node(inverse(s))
        assert right is _gl_perm_node(inverse(t))
        if expected is not None:
            assert (branch, s, t) == expected, mask
            continue
        assert z < 4 and branch in forms, mask
        u = permute(m, s, t)
        assert all(u.entry(i, j) == BOTTOM for i, j in forms[branch]), mask


def test_factor_m3_dag_shape_pinned():
    # The word text does not fix how a word nests, and the cost of
    # evaluating it depends on the nesting.  Over one seeded grid round
    # (the 512 bottom masks in shuffled order with {0, 1} entries, and a
    # random matrix in [-20, 20] after every second one), the root part
    # counts and the distinct objects under each root, letters included,
    # are pinned by their sums.  Building each adjacent swap of a gl
    # permutation word once, not once per new permutation, took the
    # distinct objects from 21529 to 18075 with the same words.
    rng = random.Random(41)
    masks = list(range(512))
    rng.shuffle(masks)
    rows = []
    for i, mask in enumerate(masks):
        rows.append([[BOTTOM if mask >> (3 * r + c) & 1 else rng.randint(0, 1) for c in range(3)] for r in range(3)])
        if i % 2:
            rows.append([[BOTTOM if rng.random() < 0.3 else rng.randint(-20, 20) for _ in range(3)] for _ in range(3)])
    root_parts = nodes = 0
    for r in rows:
        root = factor_m3(matrix(r)).root
        root_parts += len(root.parts) if isinstance(root, _Node) else 1
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(getattr(node, "parts", ()))
        nodes += len(seen)
    assert (len(rows), root_parts, nodes) == (768, 9721, 18075)


def test_factor_m3_routes_pinned():
    # The route of every bottom mask, (branch, s, t), is fixed output: a
    # changed route changes the words, so its bytes are pinned here, where
    # a failure names the route rather than the word text.  s and t are
    # hashed as 1-based image tuples.
    h = hashlib.sha256()
    for mask in range(512):
        branch, s, t, _ = _m3_fill(mask)
        h.update(repr((branch, tuple(x + 1 for x in s), tuple(x + 1 for x in t))).encode())
    assert h.hexdigest() == "3f060e747d25e8ebeadc6a2a415e4404cf50cdeb3b76add7695d83d9a6d5b2e8"


@given(
    st.lists(
        st.lists(st.one_of(st.just(BOTTOM), st.integers(-12, 12)), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_factor_m3_hypothesis(rows):
    m = matrix(rows)
    assert evaluate(factor_m3(m)) == m


def test_factor_word_text_digest_pinned():
    # The factorizers' words are fixed output (the CLI prints them), so
    # their bytes are pinned: every m3 bottom mask with seeded finite
    # fillings (thirty for the dense mask, so each dense split and each
    # branch is reached), seeded ut matrices for n = 1..6, seeded m2.
    rng = random.Random(55)
    h = hashlib.sha256()
    words = []
    for mask in range(512):
        for _ in range(30 if mask == 0 else 3):
            rows = [[BOTTOM if mask >> (3 * i + j) & 1 else rng.randint(-9, 9) for j in range(3)] for i in range(3)]
            words.append(factor_m3(matrix(rows)))
    for n in range(1, 7):
        for _ in range(40):
            rows = [[BOTTOM if j < i or rng.random() < 0.2 else rng.randint(-6, 6) for j in range(n)] for i in range(n)]
            words.append(factor_ut(matrix(rows)))
    for _ in range(300):
        words.append(factor_m2(matrix([[rnd_entry(rng, lo=-9, hi=9) for _ in range(2)] for _ in range(2)])))
    for w in words:
        h.update(w.text().encode() + b"\n")
    assert h.hexdigest() == "649b603a5b0b848d9ce48aadac10169b2a18490a49e76015d6a24e8b5357a379"


def test_factor_gl_and_u_word_text_digest_pinned():
    # The same for the group and unitriangular words: seeded factor_gl
    # for n = 2..8 (the identity, pure permutations, pure scalings and
    # their products, scalings of both signs) and seeded
    # factor_unitriangular for n = 1..8.
    rng = random.Random(56)
    h = hashlib.sha256()
    words = []
    for n in range(2, 9):
        cases = [identity(n)]
        for _ in range(3):
            img = list(range(n))
            rng.shuffle(img)
            scale = [rng.randint(-3, 3) for _ in range(n)]
            cases += [construct_P(img), diag(scale), mat_mul(diag(scale), construct_P(img))]
        words += [factor_gl(m) for m in cases]
    for n in range(1, 9):
        for _ in range(20):
            rows = [
                [0 if i == j else BOTTOM if j < i or rng.random() < 0.2 else rng.randint(-9, 9) for j in range(n)]
                for i in range(n)
            ]
            words.append(factor_unitriangular(matrix(rows)))
    for w in words:
        h.update(w.text().encode() + b"\n")
    assert h.hexdigest() == "e0491fae4182c1c88533229ad8f1967b67d03a67cc7cab56db83965a8021f6cf"


def test_m3_words_hold_no_empty_concatenation():
    # Below a word's root every _Node has parts: a sub-word with no
    # letters (the identity permutation, a zero scaling) is left out.
    for vals in itertools.product((BOTTOM, 0, 2), repeat=9):
        w = factor_m3(matrix([vals[0:3], vals[3:6], vals[6:9]]))
        seen = set()
        stack = list(getattr(w.root, "parts", ()))
        while stack:
            node = stack.pop()
            if isinstance(node, _Node) and id(node) not in seen:
                seen.add(id(node))
                assert node.parts, vals
                stack.extend(node.parts)


def shape_cases():
    """(factorizer, matrix) over every family: ut and u at n = 1..8, gl
    at n = 2..8, m2 over all 16 bottom masks and m3 over all 512, plus
    random matrices, entries up to ±10^9."""
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(3):
            yield factor_ut, rnd_upper(rng, n, lambda: rnd_entry(rng, 0.3, -10 ** 9, 10 ** 9))
            yield factor_unitriangular, rnd_upper(rng, n, lambda: 0)
    for n in range(2, 9):
        for _ in range(3):
            img = list(range(n))
            rng.shuffle(img)
            yield factor_gl, mat_mul(diag([rng.randint(-10 ** 9, 10 ** 9) for _ in range(n)]), construct_P(img))
    for size, factorizer in ((2, factor_m2), (3, factor_m3)):
        for mask in range(1 << size * size):
            vals = [BOTTOM if mask >> k & 1 else rng.randint(-20, 20) for k in range(size * size)]
            yield factorizer, matrix([vals[i:i + size] for i in range(0, size * size, size)])
        for _ in range(100):
            yield factorizer, matrix([[rnd_entry(rng, 0.3, -10 ** 9, 10 ** 9) for _ in range(size)] for _ in range(size)])


def test_words_keep_a_node_only_where_it_is_shared_or_repeated():
    # A fresh sub-word is spliced into its parent's parts and every power
    # is a run, so below the root a node that is not a run is a shared
    # word: the same object in two factorizations of the same matrix.
    for factorizer, m in shape_cases():
        w1, w2 = factorizer(m), factorizer(m)
        seen, stack = set(), [(w1.root, w2.root, True)]
        while stack:
            a, b, top = stack.pop()
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            assert type(a) is type(b) and type(a) is not list, m
            if type(a) is Generator:
                continue
            if type(a) is _Node:
                assert top or a is b, m
            assert len(a.parts) == len(b.parts), m
            stack.extend((p, q, False) for p, q in zip(a.parts, b.parts))


def test_factor_dispatch():
    m = parse_matrix("2 5; 1 9")
    assert evaluate(factor(m, "m2")) == m
    try:
        factor(m, "nope")
        assert False
    except ValueError:
        pass


def test_factor_words_stay_inside_claimed_alphabet():
    # gl words on invertible 3x3s should never leak E or X letters
    rng = random.Random(107)
    img = [1, 2, 0]
    m = mat_mul(diag([3, -1, 4]), construct_P(img))
    w = factor(m, "gl")
    assert {g.text() for g in w.distinct_letters()} <= {"A", "B"}
    assert evaluate(w) == m
