"""Matrix algebra over the tropical and Boolean semirings.

Multiplication, permutation calculus, monomial/invertibility structure,
residuation-based regularity, and the text/JSON forms.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tropmono.matrix import (
    MAX_DIM,
    Matrix,
    _residuation,
    boolean_image,
    construct_A,
    construct_E,
    construct_P,
    count_bottoms,
    diag,
    format_matrix,
    identity,
    is_monomial,
    is_unitriangular,
    is_upper_triangular,
    mat_mul,
    matrix,
    matrix_to_json,
    parse_matrix,
    regularity_witness,
)
from tropmono.semiring import BOOLEAN, BOTTOM, ZMAX, is_finite

from unit_reference import is_invertible, mat_pow, permute


def rnd_matrix(rng, n, p_bot=0.3, lo=-20, hi=20):
    return matrix(
        [
            [BOTTOM if rng.random() < p_bot else rng.randint(lo, hi) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rnd_boolean(rng, n):
    return matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], BOOLEAN)


entries = st.one_of(st.just(BOTTOM), st.integers(-30, 30))


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        matrix
    )


# -- multiplication ---------------------------------------------------------

def test_associativity_random_sweep():
    rng = random.Random(4242)
    for n in (1, 2, 3, 4):
        for _ in range(2500):
            a, b, c = (rnd_matrix(rng, n) for _ in range(3))
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(square(3), square(3), square(3))
@settings(max_examples=60)
def test_associativity_hypothesis(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_identity_neutral():
    rng = random.Random(7)
    for n in range(1, 6):
        m = rnd_matrix(rng, n)
        e = identity(n)
        assert mat_mul(m, e) == m
        assert mat_mul(e, m) == m


def test_zeros_absorb():
    rng = random.Random(8)
    m = rnd_matrix(rng, 3)
    z = matrix([[BOTTOM] * 3] * 3)
    assert mat_mul(m, z) == z
    assert mat_mul(z, m) == z


def zmax_product_by_definition(a, b):
    # (ab)_ij = max over k of a_ik + b_kj, as a triple loop; -inf when
    # every term is.
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            best = BOTTOM
            for k in range(n):
                t = a.rows[i][k] + b.rows[k][j]
                if t > best:
                    best = t
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


def rnd_zmax_stress(rng, n, style):
    """A seeded matrix that stresses a max-plus kernel: mostly -inf, many
    tied terms, or entries near +-10^18; in about a third of the calls one
    row or one column is all -inf."""
    def entry():
        if style == "sparse":
            return BOTTOM if rng.random() < 0.8 else rng.randint(-5, 5)
        if style == "ties":
            return BOTTOM if rng.random() < 0.2 else rng.randint(-1, 1)
        return BOTTOM if rng.random() < 0.3 else rng.choice((-1, 1)) * 10 ** 18 + rng.randint(-2, 2)

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    line, k = rng.randrange(3), rng.randrange(n)
    for i in range(n):
        if line == 1:
            rows[k][i] = BOTTOM
        elif line == 2:
            rows[i][k] = BOTTOM
    return matrix(rows)


def test_zmax_mul_matches_definition():
    # Every kernel (_mul2, _mul3 and the general one, n = 1..MAX_DIM)
    # against the definition; associativity and identity alone would
    # also pass a min-plus product.  Finite entries stay exact ints.
    rng = random.Random(3131)
    for n in range(1, MAX_DIM + 1):
        for style in ("sparse", "ties", "huge"):
            for _ in range(150):
                a, b = rnd_zmax_stress(rng, n, style), rnd_zmax_stress(rng, n, style)
                p = mat_mul(a, b)
                assert p.rows == zmax_product_by_definition(a, b), (n, style, a, b)
                assert all(type(x) is int for r in p.rows for x in r if x != BOTTOM)


def rnd_boolean_dense(rng, n, p):
    return matrix([[int(rng.random() < p) for _ in range(n)] for _ in range(n)], BOOLEAN)


def boolean_product_by_definition(a, b):
    n = a.n
    return tuple(
        tuple(int(any(a.rows[i][k] and b.rows[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def assert_boolean_product(a, b):
    p = mat_mul(a, b)
    assert p.semiring is BOOLEAN
    assert p.rows == boolean_product_by_definition(a, b)
    assert all(type(x) is int for r in p.rows for x in r)


def test_boolean_mul_matches_definition():
    # Sparse, half and dense matrices at every dimension: a product of
    # half-full 8x8 matrices is almost always all ones.
    rng = random.Random(9090)
    for n in range(1, MAX_DIM + 1):
        for p in (0.15, 0.35, 0.5, 0.8):
            for _ in range(60):
                assert_boolean_product(rnd_boolean_dense(rng, n, p), rnd_boolean_dense(rng, n, p))


def test_boolean_mul_exhaustive_2x2():
    every = [matrix([bits[:2], bits[2:]], BOOLEAN) for bits in itertools.product((0, 1), repeat=4)]
    for a in every:
        for b in every:
            assert_boolean_product(a, b)


def test_boolean_associativity_and_identity():
    rng = random.Random(9191)
    for n in range(1, MAX_DIM + 1):
        e = identity(n, BOOLEAN)
        for p in (0.15, 0.35, 0.6):
            for _ in range(40):
                a, b, c = (rnd_boolean_dense(rng, n, p) for _ in range(3))
                assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
                assert mat_mul(a, e) == a
                assert mat_mul(e, a) == a


def test_mul_by_hand():
    a = parse_matrix("1 -inf; 0 2")
    b = parse_matrix("0 3; -1 -inf")
    # (1,1): max(1+0, -inf + -1) = 1; (1,2): max(1+3, -inf) = 4
    # (2,1): max(0+0, 2-1) = 1;     (2,2): max(0+3, 2 + -inf) = 3
    assert mat_mul(a, b) == parse_matrix("1 4; 1 3")
    # boolean: or of ands (here: max of mins)
    ba = matrix([[1, 0], [1, 1]], BOOLEAN)
    bb = matrix([[0, 0], [1, 0]], BOOLEAN)
    assert mat_mul(ba, bb) == matrix([[0, 0], [1, 0]], BOOLEAN)


def test_mul_rejects_mismatch():
    a = identity(2)
    b = identity(3)
    try:
        mat_mul(a, b)
        assert False
    except ValueError:
        pass
    c = identity(2, BOOLEAN)
    try:
        mat_mul(a, c)
        assert False
    except ValueError:
        pass


def test_pow():
    m = parse_matrix("1 0; -inf 1")
    p = identity(2)
    for k in range(8):
        assert mat_pow(m, k) == p
        p = mat_mul(p, m)


def test_dimension_cap():
    try:
        identity(MAX_DIM + 1)
        assert False
    except ValueError:
        pass
    identity(MAX_DIM)  # fine


def test_entry_is_one_based():
    m = parse_matrix("1 2; 3 4")
    assert m.entry(1, 2) == 2
    assert m.entry(2, 1) == 3


# -- the support morphism ----------------------------------------------------

@given(square(3), square(3))
@settings(max_examples=80)
def test_boolean_image_is_a_morphism(a, b):
    assert boolean_image(mat_mul(a, b)) == mat_mul(boolean_image(a), boolean_image(b))


def test_boolean_image_identity():
    assert boolean_image(identity(4)) == identity(4, BOOLEAN)


# -- constructors -----------------------------------------------------------

def test_construct_shapes():
    assert construct_A(2, 5, 3) == parse_matrix("0 -inf -inf; -inf 5 -inf; -inf -inf 0")
    assert construct_E(1, 3, 3, lam=-2) == parse_matrix("0 -inf -2; -inf 0 -inf; -inf -inf 0")
    assert construct_E(1, 2, 2) == parse_matrix("0 0; -inf 0")
    sigma = (1, 2, 0)
    assert construct_P(sigma) == parse_matrix("-inf 0 -inf; -inf -inf 0; 0 -inf -inf")
    assert diag((1, 2)) == parse_matrix("1 -inf; -inf 2")


def test_construct_E_rejects_diagonal():
    try:
        construct_E(2, 2, 3)
        assert False
    except ValueError:
        pass


def test_perm_matrix_multiplies_like_composition():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = list(range(n))
        t = list(range(n))
        rng.shuffle(s)
        rng.shuffle(t)
        assert mat_mul(construct_P(s), construct_P(t)) == construct_P(tuple(t[s[i]] for i in range(n)))


def test_perm_basics():
    # a permutation is a 0-based image tuple: construct_P and is_monomial
    # are inverse to each other on every one of them
    for n in range(1, 6):
        for img in itertools.permutations(range(n)):
            assert is_monomial(construct_P(img)) == (img, (0,) * n)


@pytest.mark.parametrize("build, message", [
    (lambda: Matrix(0, ZMAX, ()), f"dimension 0 outside supported range 1..{MAX_DIM}"),
    (lambda: Matrix(2, ZMAX, ((0, 0), (0,))), "expected 2x2 rows"),
    (lambda: construct_P((0, 0)), "not a permutation of 0..1: (0, 0)"),
    (lambda: construct_P((1, 2)), "not a permutation of 0..1: (1, 2)"),
    (lambda: construct_P((-1, 0)), "not a permutation of 0..1: (-1, 0)"),
    (lambda: construct_A(4, 0, 3), "index 4 outside 1..3"),
    (lambda: construct_E(1, 4, 3), "index (1,4) outside 1..3"),
    (lambda: boolean_image(identity(2, BOOLEAN)), "boolean_image expects a zmax matrix"),
])
def test_constructors_refuse_out_of_range_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value) == message


def test_permute_orientation():
    m = parse_matrix("1 2; 3 4")
    swap, ident = (1, 0), (0, 1)
    # row permutation: entry (i, j) comes from row swap[i]
    assert permute(m, swap, ident) == parse_matrix("3 4; 1 2")
    # column permutation: entry lands at column swap[j]
    assert permute(m, ident, swap) == parse_matrix("2 1; 4 3")
    # and permute really is P_row * m * P_col
    assert permute(m, swap, swap) == mat_mul(mat_mul(construct_P(swap), m), construct_P(swap))


# -- monomial structure -------------------------------------------------------

def test_is_monomial_reads_off_perm_and_values():
    m = mat_mul(diag((5, -1, 2)), construct_P((2, 0, 1)))
    mono = is_monomial(m)
    assert mono is not None
    img, vals = mono
    assert img == (2, 0, 1)
    assert vals == (5, -1, 2)
    assert is_monomial(parse_matrix("0 0; -inf 0")) is None
    assert is_monomial(matrix([[BOTTOM] * 2] * 2)) is None


def test_monomial_pattern_counts_boolean():
    # over the Boolean semiring the monomial matrices are exactly the
    # permutation matrices: n! of them
    found3 = 0
    for bits in itertools.product((0, 1), repeat=9):
        m = matrix([list(bits[0:3]), list(bits[3:6]), list(bits[6:9])], BOOLEAN)
        if is_monomial(m) is not None:
            found3 += 1
    assert found3 == 6
    found4 = 0
    for bits in itertools.product((0, 1), repeat=16):
        m = matrix([list(bits[i : i + 4]) for i in range(0, 16, 4)], BOOLEAN)
        if is_monomial(m) is not None:
            found4 += 1
    assert found4 == 24


def test_invertible_needs_units():
    m = diag((BOTTOM, 0))
    assert not is_invertible(m)
    # boolean: permutation matrices only
    assert is_invertible(construct_P((1, 0), BOOLEAN))
    assert not is_invertible(matrix([[1, 1], [0, 1]], BOOLEAN))


def test_unit_products_need_unit_factors():
    # if a product is monomial then both factors already were
    rng = random.Random(12)
    for _ in range(2000):
        a, b = rnd_matrix(rng, 3, p_bot=0.5, lo=-5, hi=5), rnd_matrix(rng, 3, p_bot=0.5, lo=-5, hi=5)
        if is_monomial(mat_mul(a, b)) is not None:
            assert is_monomial(a) is not None and is_monomial(b) is not None


def test_triangular_predicates():
    assert is_upper_triangular(parse_matrix("1 2; -inf 3"))
    assert not is_upper_triangular(parse_matrix("1 2; 0 3"))
    assert is_unitriangular(parse_matrix("0 7; -inf 0"))
    assert not is_unitriangular(parse_matrix("1 7; -inf 0"))
    assert count_bottoms(parse_matrix("1 -inf; -inf 3")) == 2


# -- regularity ---------------------------------------------------------------

def test_regular_examples():
    assert regularity_witness(identity(3))[0] is not None
    for i in (1, 2, 3):
        w = regularity_witness(construct_A(i, BOTTOM, 3))[0]
        assert w is not None
    assert regularity_witness(construct_E(1, 2, 3))[0] is not None
    assert regularity_witness(parse_matrix("0 0; 0 -inf"))[0] is not None


def test_irregular_corner_family():
    for s in range(6):
        x = parse_matrix(f"-inf 0 {s}; 0 -inf 0; 0 0 -inf")
        assert regularity_witness(x)[0] is None


def test_witness_actually_witnesses():
    rng = random.Random(13)
    hits = 0
    for _ in range(3000):
        m = rnd_matrix(rng, rng.randint(1, 3), p_bot=0.4, lo=-6, hi=6)
        wit, variant = regularity_witness(m)
        if wit is not None:
            hits += 1
            assert variant in ("exact", "clamped")
            assert mat_mul(mat_mul(m, wit), m) == m
    assert hits > 100  # plenty of regular matrices show up at n <= 3


def test_residuation_is_greatest():
    """Anything entrywise at most the residuation (numerically) keeps
    m*Y*m entrywise at most m, so the residuation is the canonical
    candidate: if it fails, everything fails."""
    rng = random.Random(14)
    INF = float("inf")
    for _ in range(400):
        n = rng.randint(1, 3)
        m = rnd_matrix(rng, n, p_bot=0.3, lo=-5, hi=5)
        Y = _residuation(m)
        rows = []
        for r in Y:
            out = []
            for x in r:
                if x == INF:
                    # unconstrained slot: any value at all is fine
                    out.append(rng.randint(-30, 30))
                elif x == BOTTOM or rng.random() < 0.2:
                    out.append(BOTTOM)
                else:
                    out.append(int(x) - rng.randint(0, 10))
            rows.append(out)
        prod = mat_mul(mat_mul(m, matrix(rows)), m)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert prod.entry(i, j) <= m.entry(i, j)


def test_regularity_needs_zmax():
    try:
        regularity_witness(identity(2, BOOLEAN))
        assert False
    except ValueError:
        pass


# -- text and JSON ------------------------------------------------------------

def test_format_is_bit_exact():
    m = parse_matrix("-inf 0 5; 0 -inf 0; 0 0 -inf")
    assert format_matrix(m) == "-inf 0 5; 0 -inf 0; 0 0 -inf"


def test_parse_round_trip():
    rng = random.Random(15)
    for _ in range(300):
        m = rnd_matrix(rng, rng.randint(1, 5))
        assert parse_matrix(format_matrix(m)) == m
    b = rnd_boolean(rng, 3)
    assert parse_matrix(format_matrix(b), BOOLEAN) == b


def test_parse_rejects():
    for bad in ("1 2; 3", "1 2", "", "1 x; 3 4", "1 2; 3 4; 5 6"):
        try:
            parse_matrix(bad)
            assert False, bad
        except ValueError:
            pass


def test_json_round_trip():
    rng = random.Random(16)
    for _ in range(100):
        m = rnd_matrix(rng, rng.randint(1, 4))
        d = matrix_to_json(m)
        assert (d["n"], d["semiring"]) == (m.n, "zmax")
        assert matrix([[BOTTOM if x == "-inf" else x for x in r] for r in d["rows"]]) == m
    d = matrix_to_json(parse_matrix("-inf 1; 0 -inf"))
    assert d == {"n": 2, "semiring": "zmax", "rows": [["-inf", 1], [0, "-inf"]]}


def test_matrix_immutable_and_hashable():
    m = identity(2)
    assert m == identity(2)
    assert hash(m) == hash(identity(2))
    s = {m, identity(2), matrix([[BOTTOM] * 2] * 2)}
    assert len(s) == 2
