"""Finite closures, J-class structure, generation rank, and prime
certificates, cross-checked against brute-force oracles where the
monoids are small enough to enumerate blindly.
"""

import itertools
import random
import time
from collections import deque
from fractions import Fraction

import pytest

from tropmono import finite
from tropmono.finite import (
    _codec,
    _orbits,
    _products,
    _rank,
    _splits,
    _units,
    _word,
    closure,
    infinite_witness,
    irredundant,
    is_generating,
    jclasses,
    prime_certificate,
    rank_search,
    x_family_j_related,
)
from tropmono.genset import (
    generating_set,
    gens_m2_zmax,
    gens_m3_zmax,
    gens_ut_boolean,
    parse_generator,
    x_letter,
)
from tropmono.matrix import (
    boolean_image,
    construct_P,
    identity,
    mat_mul,
    matrix,
    parse_matrix,
)
from tropmono.semiring import BOOLEAN, BOTTOM, ZMAX

from unit_reference import is_invertible, mat_pow, permute


def walk(fm, e, word):
    """e times the product of the word's generators, step by step."""
    for g in word:
        e = fm.cayley[e][g]
    return e


def required_orbits(fm):
    """The orbits that _orbits marks required, as sets."""
    return [set(members) for members, req in zip(*_orbits(fm)) if req]


def m2_boolean_gens():
    return [boolean_image(g) for g in gens_m2_zmax().realized()]


def m3_boolean_gens(max_x=0):
    return [boolean_image(g) for g in gens_m3_zmax(max_x).realized()]


def ut_boolean_gens(n):
    return [g.realize(n, BOOLEAN) for g in gens_ut_boolean(n).letters]


# -- closures -------------------------------------------------------------------

def test_closure_full_2x2_boolean():
    fm = closure(m2_boolean_gens())
    assert len(fm) == 16
    assert fm.closed
    # it really is everything: all 2x2 0/1 patterns
    for bits in range(16):
        m = matrix([[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]], BOOLEAN)
        assert m in fm


def test_closure_ut_boolean_counts():
    # upper triangular 0/1 patterns: 2^(n(n+1)/2)
    fm2 = closure([g.realize(2, BOOLEAN) for g in gens_ut_boolean(2).letters])
    assert len(fm2) == 8 and fm2.closed
    fm3 = closure([g.realize(3, BOOLEAN) for g in gens_ut_boolean(3).letters])
    assert len(fm3) == 64 and fm3.closed


def test_closure_identity_only():
    fm = closure([identity(2, BOOLEAN)])
    assert len(fm) == 1 and fm.closed


def test_closure_is_order_independent():
    rng = random.Random(55)
    gens = m2_boolean_gens()
    base = set(closure(gens).elements)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert set(closure(shuffled).elements) == base


def test_closure_cap_flags_not_closed():
    fm = closure(m2_boolean_gens(), cap=5)
    assert not fm.closed
    assert len(fm) <= 5
    # a tropical closure that genuinely never finishes also just flags
    fmz = closure([parse_matrix("1 -inf; -inf 0")], cap=50)
    assert not fmz.closed
    assert len(fmz) == 50


def test_closure_validates_input():
    try:
        closure([])
        assert False
    except ValueError:
        pass
    try:
        closure([identity(2, BOOLEAN), identity(3, BOOLEAN)])
        assert False
    except ValueError:
        pass


def test_cap_below_the_seed_is_refused():
    # the identity and 3 distinct generator images: a smaller cap cannot
    # bound the element count
    for cap in (-3, 0, 3):
        try:
            closure(m2_boolean_gens(), cap=cap)
            assert False
        except ValueError as exc:
            assert f"cap {cap} is below the 4 elements" in str(exc)
    fm = closure(m2_boolean_gens(), cap=4)
    assert len(fm) == 4 and not fm.closed


def reference_closure(gens, limit):
    """Plain breadth-first closure from the identity with one mat_mul per
    (element, generator), keeping at most limit elements.  Returns the
    elements, the right action (-1 outside), parents, last letters,
    whether nothing fell outside, and the left action gens[b] * e."""
    elements = [identity(gens[0].n, gens[0].semiring)]
    where = {elements[0]: 0}
    parent, last, right = [-1], [-1], []
    while len(right) < len(elements):
        e = len(right)
        row = []
        for b, g in enumerate(gens):
            p = mat_mul(elements[e], g)
            if p not in where and len(elements) < limit:
                where[p] = len(elements)
                elements.append(p)
                parent.append(e)
                last.append(b)
            row.append(where.get(p, -1))
        right.append(row)
    left = [[where.get(mat_mul(g, m), -1) for g in gens] for m in elements]
    closed = all(i >= 0 for row in right for i in row)
    return elements, right, parent, last, closed, left


def random_boolean_gens(rng, n):
    """Two or three sparse random 0/1 matrices, sometimes with a
    permutation matrix (so products can fall back to the identity), then
    a repeated generator and the identity at random places."""
    gens = [matrix([[int(rng.random() < 1.2 / n) for _ in range(n)] for _ in range(n)], BOOLEAN)
            for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        image = rng.sample(range(n), n)
        gens.append(matrix([[int(image[i] == j) for j in range(n)] for i in range(n)], BOOLEAN))
    gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    gens.insert(rng.randrange(len(gens) + 1), identity(n, BOOLEAN))
    return gens


def test_closure_matches_reference_at_every_cap():
    rng = random.Random(20261018)
    cases = [random_boolean_gens(rng, n) for n in (2, 3, 4) for _ in range(4)]
    cases += [random_boolean_gens(rng, n) for n in (5, 6) for _ in range(2)]
    cases.append([parse_matrix("1 -inf; -inf 0")])  # zmax, never closes
    # zmax alphabets, cut off at every cap
    cases += [gens_m2_zmax().realized(), gens_m3_zmax(2).realized()]
    for gens in cases:
        limit = 120 if gens[0].semiring is ZMAX else 300 if gens[0].n <= 4 else 150
        elements, right, parent, last, closed, left = reference_closure(gens, limit)
        seed = len({elements[0], *gens})
        for cap in range(seed, len(elements) + 1):
            fm = closure(gens, cap=cap)
            assert fm.elements == elements[:cap]
            assert fm.gens == [elements.index(g) for g in gens]
            assert fm.parent == parent[:cap] and fm.last == last[:cap]
            assert fm.closed == (closed and cap == len(elements))
            if fm.closed:
                assert fm.cayley == right and fm.left == left
            else:
                assert fm.cayley is None and fm.left is None


def test_capped_closure_stops_at_its_first_product_past_the_cap(monkeypatch):
    # the m3 alphabet never closes: every product counted here is one the
    # walk needed to find the cap's 10^4 elements, none fills a Cayley row
    # past them or a left edge
    counts = {"right": 0, "row": 0}

    def counted(name, factory):
        def make(*args):
            product = factory(*args)

            def wrapper(*operands):
                counts[name] += 1
                return product(*operands)
            return wrapper
        return make

    def counted_codec(n, semiring):
        encode, decode, times = codec(n, semiring)
        return encode, decode, counted("right", times)

    codec = finite._codec
    codec(3, ZMAX)  # cached before _row_product is counted
    monkeypatch.setattr(finite, "_codec", counted_codec)
    monkeypatch.setattr(finite, "_row_product", counted("row", finite._row_product))
    fm = closure(gens_m3_zmax().realized(), cap=10 ** 4)
    assert len(fm) == 10 ** 4 and not fm.closed
    assert counts == {"right": 10760, "row": 0}


def test_boolean_row_table_product_matches_mat_mul():
    # one table per generator, all 2^n rows built before the first lookup
    rng = random.Random(20261019)
    for n in range(1, 9):
        ident = identity(n, BOOLEAN)
        zero_rows = matrix([[0] * n for _ in range(n)], BOOLEAN)
        ones = matrix([[1] * n for _ in range(n)], BOOLEAN)

        def rand(p):
            rows = [[int(rng.random() < p) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)] = [rng.choice((0, 1))] * n  # a zero or all-ones row
            return matrix(rows, BOOLEAN)

        factors = [ident, zero_rows, ones] + [rand(p) for p in (0.1, 0.3, 0.5, 0.8) for _ in range(3)]
        encode, decode, times = _codec(n, BOOLEAN)
        for g in factors:
            times_g = times(g.rows)
            lefts = factors + [rand(0.5) for _ in range(10)]
            for _ in range(2):
                for a in lefts:
                    assert decode(times_g(encode(a.rows))) == mat_mul(a, g).rows


def test_boolean_codes_round_trip():
    # a code is the matrix's n^2 bits read row by row, row 1 on top
    rng = random.Random(20261020)
    for n in range(1, 9):
        encode, decode, _ = _codec(n, BOOLEAN)
        zero, ones = ((0,) * n,) * n, ((1,) * n,) * n
        assert encode(zero) == 0 and encode(ones) == (1 << n * n) - 1
        samples = [zero, ones] + [tuple(tuple(rng.randrange(2) for _ in range(n)) for _ in range(n)) for _ in range(40)]
        for rows in samples:
            code = encode(rows)
            assert code == int("".join(str(x) for row in rows for x in row), 2)
            assert decode(code) == rows


def test_lookup_refuses_a_matrix_of_another_dimension():
    # the 3x3 code 0b000_001_001 is the 2x2 identity's 0b10_01
    fm = closure(m2_boolean_gens())
    stranger = matrix([[0, 0, 0], [0, 0, 1], [0, 0, 1]], BOOLEAN)
    assert _codec(3, BOOLEAN)[0](stranger.rows) == _codec(2, BOOLEAN)[0](identity(2, BOOLEAN).rows) == 9
    assert fm.index_of(identity(2, BOOLEAN)) == 0
    assert fm.index_of(stranger) is None
    assert stranger not in fm


def test_queries_build_no_element_matrix():
    # every boolean_finite benchmark task answers from codes and Cayley
    # edges: building a Matrix per element would show as a built list
    monoids = [closure(gens) for gens in (ut_boolean_gens(2), ut_boolean_gens(3), ut_boolean_gens(4))]
    m2, m3 = closure(m2_boolean_gens()), closure(m3_boolean_gens())
    monoids += [m2, m3]
    assert [len(jclasses(fm)) for fm in monoids] == [6, 33, 384, 4, 11]
    x = boolean_image(x_letter(0).realize(3, ZMAX))
    assert prime_certificate(permute(x, (1, 2, 0), (2, 0, 1)), m3)
    assert rank_search(m2, 2) is None and len(rank_search(m2, 3)) == 3
    assert is_generating(m2, m2.gens)
    assert irredundant(m3, m3.gens) == [True] * 5
    assert all(fm._elements is None for fm in monoids)
    assert m3.elements is m3.elements and len(m3.elements) == 512


def test_cayley_table_is_right_action():
    fm = closure(m2_boolean_gens())
    for e, m in enumerate(fm.elements):
        for gi, g in enumerate(fm.gens):
            expected = mat_mul(m, fm.elements[g])
            assert fm.elements[fm.cayley[e][gi]] == expected


def test_cayley_and_left_graphs_match_mat_mul():
    # closure multiplies out only tree edges and reads the rest off the
    # graphs, the left row of an element of a shorter word included:
    # every edge of both graphs against mat_mul, on the benchmark's five
    # Boolean monoids and on random ones (those against product_table)
    named = [ut_boolean_gens(2), ut_boolean_gens(3), ut_boolean_gens(4), m2_boolean_gens(), m3_boolean_gens()]
    for fm in [closure(gens) for gens in named]:
        where = {m: i for i, m in enumerate(fm.elements)}
        gens = [fm.elements[g] for g in fm.gens]
        assert fm.cayley == [[where[mat_mul(m, g)] for g in gens] for m in fm.elements]
        assert fm.left == [[where[mat_mul(g, m)] for g in gens] for m in fm.elements]
    for fm in small_random_monoids(20261030, 12):
        table = product_table(fm)
        assert fm.cayley == [[row[g] for g in fm.gens] for row in table]
        assert fm.left == [[table[g][e] for g in fm.gens] for e in range(len(fm))]


def test_cayley_walk_products_match_mat_mul():
    # Every product inside finite.py is a walk in the Cayley graphs:
    # whole rows u * S, and v's spanning-tree word walked from u, in the
    # right graph; the J-classes also take the left steps of
    # FiniteMonoid.left, which closure reads off the right graph.  A
    # monoid cut off at its cap keeps its spanning tree but no graphs.
    for gens, cap in ((m2_boolean_gens(), 10 ** 6), (ut_boolean_gens(3), 10 ** 6), (m3_boolean_gens(), 200)):
        fm = closure(gens, cap)
        assert fm.closed == (cap > 512)
        for v in range(1, len(fm)):
            assert fm.parent[v] < v
            assert fm.elements[v] == mat_mul(fm.elements[fm.parent[v]], gens[fm.last[v]])
        if not fm.closed:
            assert fm.cayley is None and fm.left is None
            continue
        for e, m in enumerate(fm.elements):
            for gi, g in enumerate(gens):
                assert fm.left[e][gi] == fm.index_of(mat_mul(g, m))
        for u, mu in enumerate(fm.elements):
            row = _products(fm, u)
            for v, mv in enumerate(fm.elements):
                assert fm.elements[row[v]] == mat_mul(mu, mv)
                assert walk(fm, u, _word(fm, v)) == row[v]


def test_zero_bottom_zmax_closure_runs_the_same_path():
    # tropical letters with entries in {0, -inf}: a zmax copy of M_3(B)
    perms = [construct_P(img, ZMAX) for img in ((1, 2, 0), (1, 0, 2))]
    tokens = ["Ai(1,-inf)", "E(1,2,0)", "X(0)"]
    fm = closure(perms + [parse_generator(t, "m3", ZMAX).realize(3, ZMAX) for t in tokens])
    assert len(fm) == 512 and fm.closed
    assert len(jclasses(fm)) == 11
    assert prime_certificate(x_letter(0).realize(3, ZMAX), fm)
    assert irredundant(fm, fm.gens) == [True] * 5
    rng = random.Random(56)
    for _ in range(300):
        u, v = rng.randrange(512), rng.randrange(512)
        expected = mat_mul(fm.elements[u], fm.elements[v])
        assert fm.elements[_products(fm, u)[v]] == expected
        assert fm.elements[walk(fm, u, _word(fm, v))] == expected


def cycle_mean(g):
    """The largest mean weight of a simple cycle of g's graph, by brute
    force over every vertex subset in every cyclic order, or None when
    the graph has no cycle."""
    n, best = g.n, None
    for size in range(1, n + 1):
        for cycle in itertools.permutations(range(n), size):
            if cycle[0] != min(cycle):
                continue
            w = sum(g.rows[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            if w != float("-inf") and (best is None or Fraction(w, size) > best):
                best = Fraction(w, size)
    return best


def test_infinite_witness_powers_are_pairwise_distinct():
    # every zmax alphabet here generates an infinite monoid; its witness
    # has a nonzero cycle mean, and its first 50 powers differ pairwise
    cases = [gens_m2_zmax().realized(), gens_m3_zmax(2).realized()]
    cases += [generating_set("ut", n).realized() for n in range(1, 6)]
    cases += [generating_set("gl", n).realized() for n in range(2, 6)]
    cases += [[matrix([[BOTTOM, 3], [-5, BOTTOM]])], [matrix([[1, 7], [BOTTOM, BOTTOM]])]]
    for gens in cases:
        gi, mean = infinite_witness(gens)
        g = gens[gi]
        assert mean == cycle_mean(g) != 0
        assert len({mat_pow(g, k).rows for k in range(1, 51)}) == 50
        # the letters before it have no cycle, or cycles of mean 0
        assert all(cycle_mean(h) in (None, 0) for h in gens[:gi])
    # the scratch values the refusal messages quote
    assert infinite_witness(gens_m2_zmax().realized())[1] == Fraction(-1, 2)
    assert infinite_witness(gens_m3_zmax(0).realized())[1] == Fraction(1, 2)
    assert infinite_witness(generating_set("ut", 3).realized()) == (0, 1)


def test_closed_zmax_monoids_get_no_witness():
    # 0/-inf letters: the permutation matrices, and the zmax copy of M_3(B)
    perms = [construct_P(img, ZMAX) for img in ((1, 2, 0), (1, 0, 2))]
    assert infinite_witness(perms) is None
    fm = closure(perms)
    assert len(fm) == 6 and fm.closed
    tokens = ["Ai(1,-inf)", "E(1,2,0)", "X(0)"]
    m3 = perms + [parse_generator(t, "m3", ZMAX).realize(3, ZMAX) for t in tokens]
    assert infinite_witness(m3) is None
    # a nilpotent letter has no cycle, and an idempotent one a cycle of
    # mean 0; Boolean letters are never refused
    assert infinite_witness([matrix([[BOTTOM, 5], [BOTTOM, BOTTOM]]), matrix([[0, 7], [BOTTOM, BOTTOM]])]) is None
    assert infinite_witness(m2_boolean_gens()) is None


# -- J-classes -------------------------------------------------------------------

def naive_ideal(elements, x):
    """S^1 x S^1 by brute force."""
    out = set()
    for a in elements:
        ax = mat_mul(a, x)
        for b in elements:
            out.add(mat_mul(ax, b))
    out.add(x)
    for a in elements:
        out.add(mat_mul(a, x))
        out.add(mat_mul(x, a))
    return out


def class_index(classes, size):
    """For each element index, the position of its class in the list."""
    class_of = [None] * size
    for c, members in enumerate(classes):
        for e in members:
            class_of[e] = c
    return class_of


def test_jclasses_match_naive_oracle_on_full_2x2():
    # the full 2x2 monoid M_2(B) and the upper triangular UT_2(B)
    for gens in (m2_boolean_gens(), ut_boolean_gens(2)):
        fm = closure(gens)
        class_of = class_index(jclasses(fm), len(fm))
        ideals = [naive_ideal(fm.elements, x) for x in fm.elements]
        for i, x in enumerate(fm.elements):
            for j, y in enumerate(fm.elements):
                same = (x in ideals[j]) and (y in ideals[i])
                assert (class_of[i] == class_of[j]) == same


def test_jclasses_match_naive_oracle_on_ut3():
    # UT_3(B): 64 elements in 33 classes, each ideal by brute force
    fm = closure(ut_boolean_gens(3))
    class_of = class_index(jclasses(fm), len(fm))
    assert len(set(class_of)) == 33
    ideals = [naive_ideal(fm.elements, x) for x in fm.elements]
    for i, x in enumerate(fm.elements):
        for j, y in enumerate(fm.elements):
            assert (class_of[i] == class_of[j]) == (x in ideals[j] and y in ideals[i])


def test_jclass_counts_pinned():
    # UT_2(B), UT_3(B), UT_4(B), M_2(B), M_3(B)
    cases = [ut_boolean_gens(2), ut_boolean_gens(3), ut_boolean_gens(4), m2_boolean_gens(), m3_boolean_gens()]
    counts = []
    for gens in cases:
        fm = closure(gens)
        classes = jclasses(fm)
        assert sorted(e for c in classes for e in c) == list(range(len(fm)))
        assert all(c == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        counts.append(len(classes))
    assert counts == [6, 33, 384, 4, 11]


def test_ut5_boolean_order_and_jclasses_pinned():
    # all 2^15 upper triangular 0/1 patterns; 9772 classes as measured
    fm = closure(ut_boolean_gens(5))
    assert len(fm) == 2 ** 15 and fm.closed
    assert len(jclasses(fm)) == 9772


def test_jclasses_of_full_2x2_boolean_structure():
    fm = closure(m2_boolean_gens())
    classes = jclasses(fm)
    class_of = class_index(classes, len(fm))
    assert len(classes) == 4
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 4, 9]
    # units form the two permutation matrices
    unit_class = class_of[fm.index_of(identity(2, BOOLEAN))]
    assert len(classes[unit_class]) == 2
    # the zero matrix is a class of its own
    zero_class = class_of[fm.index_of(matrix([[0] * 2] * 2, BOOLEAN))]
    assert len(classes[zero_class]) == 1


def test_jclasses_need_closed_monoid():
    fm = closure(m2_boolean_gens(), cap=5)
    try:
        jclasses(fm)
        assert False
    except ValueError:
        pass


@pytest.mark.parametrize("query, ask", [
    ("is_generating", lambda fm: is_generating(fm, fm.gens)),
    ("rank_search", lambda fm: rank_search(fm, 2)),
    ("prime_certificate", lambda fm: prime_certificate(identity(2, BOOLEAN), fm)),
])
def test_queries_refuse_a_capped_monoid(query, ask):
    # a capped closure keeps no Cayley graphs: these refusals are what
    # stands between the queries and a TypeError on None
    fm = closure(m2_boolean_gens(), cap=5)
    with pytest.raises(ValueError) as exc:
        ask(fm)
    assert exc.type is ValueError and str(exc.value) == f"{query} needs a closed monoid"


# -- generation and rank ------------------------------------------------------------

def test_is_generating():
    fm = closure(m2_boolean_gens())
    assert is_generating(fm, fm.gens)
    assert not is_generating(fm, [])
    assert not is_generating(fm, [fm.index_of(identity(2, BOOLEAN))])


def test_irredundant_flags():
    fm = closure(m2_boolean_gens())
    flags = irredundant(fm, fm.gens)
    assert len(flags) == 4
    # the boolean image of the diagonal letter with entries (1, 0) is the
    # identity matrix, so that generator contributes nothing
    assert flags == [True, False, True, True]


def test_rank_of_full_2x2_boolean_is_3():
    fm = closure(m2_boolean_gens())
    assert rank_search(fm, 2) is None
    triple = rank_search(fm, 3)
    assert triple is not None
    assert is_generating(fm, triple)


def test_rank_search_respects_preconditions(monkeypatch):
    # below the rank the answer is None at once, a negative k included;
    # above it the search runs at any size, to the least k-tuple
    fm = closure(m2_boolean_gens())
    assert [rank_search(fm, k) for k in (-1, 0, 2)] == [None] * 3
    assert rank_search(fm, 5) == unpruned_rank_search(product_table(fm), 5) == [0, 1, 2, 3, 4]
    assert rank_search(fm, 17) is None
    big = closure(m3_boolean_gens())
    assert rank_search(big, 2) is None and rank_search(big, 6) == [0, 1, 2, 3, 4, 5]
    # past its budget of tests times elements the search stops, naming the rank
    monkeypatch.setattr(finite, "RANK_WORK", -1)
    with pytest.raises(ValueError) as exc:
        rank_search(big, 7)
    assert str(exc.value) == "rank search gave up after 0 generation tests on 512 elements above the rank 5"
    with pytest.raises(ValueError) as exc:
        rank_search(closure(m3_boolean_gens()), 5)
    assert str(exc.value) == "rank search gave up after 0 generation tests on 512 elements"


def test_rank_search_finds_singleton():
    g = matrix([[0, 1], [0, 0]], BOOLEAN)
    fm = closure([g])
    got = rank_search(fm, 1)
    assert got is not None
    assert fm.elements[got[0]] == g


def product_table(fm):
    """table[u][v] = index of elements[u] * elements[v], by mat_mul."""
    where = {m: i for i, m in enumerate(fm.elements)}
    return [[where[mat_mul(a, b)] for b in fm.elements] for a in fm.elements]


def generated(table, gens):
    """Breadth-first closure from the identity (index 0) under right
    multiplication by the gens, read off the product table."""
    seen, queue = {0}, deque([0])
    while queue:
        row = table[queue.popleft()]
        for p in {row[g] for g in gens} - seen:
            seen.add(p)
            queue.append(p)
    return seen


def unit_orbits(fm, table):
    """Each non-unit orbit U x U under the units, with whether it is
    required: the closure of everything outside it misses it."""
    units = [i for i, m in enumerate(fm.elements) if is_invertible(m)]
    out, seen = [], set()
    for x in range(len(fm)):
        if x in units or x in seen:
            continue
        orbit = {table[table[u][x]][v] for u in units for v in units}
        seen |= orbit
        outside = [e for e in range(len(fm)) if e not in orbit]
        out.append((x, orbit, x not in generated(table, outside)))
    return out


def small_random_monoids(seed, count):
    """Closed random Boolean monoids of at most 64 elements."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        fm = closure(random_boolean_gens(rng, rng.choice((2, 3, 3, 4))), cap=64)
        if fm.closed:
            found.append(fm)
    return found


def test_units_read_off_the_graph_match_is_invertible():
    # u is a unit exactly when u v = 1 for some v: a left divisor of the
    # identity, not only a direct Cayley predecessor of it
    named = [m2_boolean_gens(), ut_boolean_gens(2), ut_boolean_gens(3), ut_boolean_gens(4), m3_boolean_gens()]
    swap_and_corner = [parse_matrix("-inf 0; 0 -inf"), parse_matrix("0 -inf; -inf -inf")]
    monoids = [closure(gens) for gens in named + [swap_and_corner]]
    monoids += small_random_monoids(20261020, 12)
    for fm in monoids:
        assert fm.closed
        assert _units(fm)[0] == [is_invertible(m) for m in fm.elements]
    assert sum(_units(monoids[4])[0]) == 6 and sum(_units(monoids[5])[0]) == 2
    m3 = monoids[4]
    for m in m3.elements:
        if is_invertible(m):
            try:
                prime_certificate(m, m3)
                assert False
            except ValueError as exc:
                assert "units are excluded from primality" in str(exc)


def unit_rich_monoids(seed, count, cap=100):
    """Closed random Boolean monoids whose generators include a
    permutation matrix other than the identity, so that the units are
    more than the identity and every orbit U x U has several members."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.choice((2, 3, 3, 4))
        image = list(range(n))
        while image == sorted(image):
            rng.shuffle(image)
        gens = random_boolean_gens(rng, n)
        gens.insert(rng.randrange(len(gens) + 1), matrix([[int(image[i] == j) for j in range(n)] for i in range(n)], BOOLEAN))
        fm = closure(gens, cap=cap)
        if fm.closed:
            found.append(fm)
    return found


def test_unit_flags_match_is_invertible_with_permutation_generators():
    # the unit generators are those whose powers return to 1, and the
    # units are what they generate; a permutation of a power of 2 order,
    # a transposition beside a 3-cycle, and a permutation generator
    # listed twice all meet the power walk
    monoids = unit_rich_monoids(20261024, 24)
    cycle, swap = (1, 2, 3, 0), (1, 0, 2)
    monoids.append(closure([construct_P(cycle, BOOLEAN), matrix([[1, 1, 0, 0]] + [[0] * 4] * 3, BOOLEAN)]))
    s3 = [construct_P(swap, BOOLEAN), construct_P((1, 2, 0), BOOLEAN)]
    monoids.append(closure(s3 + [s3[0], matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]], BOOLEAN)]))
    for fm in monoids:
        assert _units(fm)[0] == [is_invertible(m) for m in fm.elements]
    assert sum(_units(monoids[-2])[0]) == 4 and sum(_units(monoids[-1])[0]) == 6
    assert all(sum(_units(fm)[0]) > 1 for fm in monoids)



def test_units_are_walked_once_per_monoid():
    # prime_certificate, _orbits and rank_search read the one
    # (flags, unit generators) pair kept on the monoid
    fm = closure(m2_boolean_gens())
    assert fm._units is None
    kept = _units(fm)
    assert _units(fm) is kept and kept[0] == [is_invertible(m) for m in fm.elements]
    required_orbits(fm)
    rank_search(fm, 3)
    prime_certificate(next(m for m in fm.elements if not is_invertible(m)), fm)
    assert fm._units is kept

def finite_answers(fm):
    """Prime flags of the non-units, rank_search at k = 0..3, irredundant."""
    units = [is_invertible(m) for m in fm.elements]
    return ([prime_certificate(m, fm) for m, unit in zip(fm.elements, units) if not unit],
            [rank_search(fm, k) for k in range(4)], irredundant(fm, fm.gens))


def test_cached_predecessor_lists_belong_to_one_monoid():
    # each closure keeps its own predecessor lists: answers on a monoid
    # that was asked before, or between calls on another monoid (M_2(B)
    # twice, its elements numbered in two orders), are those of a fresh
    # closure
    named = [m2_boolean_gens(), ut_boolean_gens(3), ut_boolean_gens(2), m2_boolean_gens()[::-1]]
    fresh = [finite_answers(closure(gens)) for gens in named]
    fms = [closure(gens) for gens in named]
    assert finite_answers(fms[0]) == fresh[0]
    assert finite_answers(fms[0]) == fresh[0]
    for order in ((1, 2, 3, 0), (3, 2, 0, 1), (0, 3, 1, 2)):
        for i in order:
            assert finite_answers(fms[i]) == fresh[i]
    for i in (1, 0, 3, 2, 1, 3):
        fm = fms[i]
        units = [is_invertible(m) for m in fm.elements]
        x = next(m for m, unit in zip(fm.elements[::-1], units[::-1]) if not unit)
        assert prime_certificate(x, fm) == prime_certificate(x, closure(named[i]))
        assert rank_search(fm, 3) == fresh[i][1][3]
        assert irredundant(fm, fm.gens) == fresh[i][2]


def test_split_test_matches_closure_oracle_on_every_unit_orbit():
    # _splits over the complement of an orbit is false exactly when the
    # orbit is required; the counts are pinned for the built-in monoids
    named = [("m2", m2_boolean_gens()), ("ut2", ut_boolean_gens(2)), ("ut3", ut_boolean_gens(3)),
             ("m3", m3_boolean_gens())]
    cases = [(name, closure(gens)) for name, gens in named]
    cases += [(None, fm) for fm in small_random_monoids(20261020, 12)]
    counts = {}
    for name, fm in cases:
        orbits = unit_orbits(fm, product_table(fm))
        for x, orbit, required in orbits:
            assert _splits(fm, x, [e not in orbit for e in range(len(fm))]) == (not required)
        counts[name] = sum(required for _, _, required in orbits)
    assert (counts["m2"], counts["ut2"], counts["ut3"], counts["m3"]) == (1, 3, 6, 2)


def test_required_orbits_match_closure_oracle():
    # the one-pass edge test (with _splits only for orbits that hold a
    # generator) finds exactly the orbits the closure oracle calls
    # required; the counts are pinned for the built-in monoids
    named = [("m2", m2_boolean_gens()), ("ut2", ut_boolean_gens(2)), ("ut3", ut_boolean_gens(3)),
             ("m3", m3_boolean_gens())]
    cases = [(name, closure(gens)) for name, gens in named]
    cases += [(None, fm) for fm in small_random_monoids(20261020, 12) + unit_rich_monoids(20261025, 20)]
    counts = {}
    for name, fm in cases:
        required = [orbit for _, orbit, req in unit_orbits(fm, product_table(fm)) if req]
        assert required_orbits(fm) == required
        counts[name] = len(required)
    assert (counts["m2"], counts["ut2"], counts["ut3"], counts["m3"]) == (1, 3, 6, 2)


def test_required_orbit_counts_at_scale():
    # M_3(B) 2, UT_4(B) 10 and UT_5(B) 15 required orbits; the UT_5(B)
    # closure and its one pass over 2^15 * 16 edges take under 10 s
    assert len(required_orbits(closure(m3_boolean_gens()))) == 2
    assert len(required_orbits(closure(ut_boolean_gens(4)))) == 10
    t0 = time.monotonic()
    fm = closure(ut_boolean_gens(5))
    assert len(required_orbits(fm)) == 15
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"UT_5(B) required orbits took {elapsed:.2f}s"


def unpruned_rank_search(table, k):
    """The least index k-tuple whose closure is everything, or None."""
    for subset in itertools.combinations(range(len(table)), k):
        if len(generated(table, subset)) == len(table):
            return list(subset)
    return None


def test_rank_search_matches_unpruned_search():
    # up to one past the rank, where the unpruned search stops early;
    # UT_3(B)'s rank 6 would have it try all C(64, 5) 5-subsets.  The
    # unit-rich monoids have 2 or 3 units, so their rank counts rank(U)
    cases = [(closure(m2_boolean_gens()), 4), (closure(ut_boolean_gens(2)), 4), (closure(ut_boolean_gens(3)), 2)]
    cases += [(fm, _rank(fm)[0] + 1) for fm in small_random_monoids(20261021, 20) + unit_rich_monoids(20261031, 24, 40)]
    for fm, top in cases:
        table = product_table(fm)
        for k in range(top + 1):
            assert rank_search(fm, k) == unpruned_rank_search(table, k), (len(fm), k)
    # UT_3(B) has six required orbits, so no four elements generate it
    assert rank_search(closure(ut_boolean_gens(3)), 4) is None


def test_rank_of_the_built_in_boolean_monoids():
    # UT_n(B) has rank n(n+1)/2 (criterion 10: its letters are singleton
    # required orbits and 1 is its only unit); M_3(B) has rank 5
    # (Konieczny, Semigroup Forum, 2011)
    named = [(m2_boolean_gens(), 3), (ut_boolean_gens(2), 3), (ut_boolean_gens(3), 6), (ut_boolean_gens(4), 10),
             (m3_boolean_gens(), 5)]
    for gens, rank in named:
        fm = closure(gens)
        got = rank_search(fm, rank)
        assert _rank(fm) == (rank, got) and is_generating(fm, got)
        assert rank_search(fm, rank - 1) is None


def test_rank_of_m3_boolean_term_by_term():
    # rank(M_3(B)) = rank(S_3) + 2 required orbits + 1, each term from
    # test-owned code: the unit matrices and their powers by mat_mul, the
    # closure oracle of unit_orbits, and generation over product_table
    fm = closure(m3_boolean_gens())
    table = product_table(fm)
    units = [u for u, m in enumerate(fm.elements) if is_invertible(m)]
    assert len(units) == 6 and all(len(generated(table, [u])) < 6 for u in units)
    required = [x for x, _, req in unit_orbits(fm, table) if req]
    assert len(required) == 2
    assert len(generated(table, units + required)) < 512
    tuple5 = rank_search(fm, 5)
    assert len(generated(table, tuple5)) == 512 and rank_search(fm, 4) is None
    assert sum(is_invertible(fm.elements[x]) for x in tuple5) == 2


def test_rank_is_computed_once_per_monoid(monkeypatch):
    # every rank_search on a monoid reads the one (rank, tuple) pair kept
    # on it, after one orbit pass; a caller's copy does not write it
    calls = []
    real_orbits = finite._orbits
    monkeypatch.setattr(finite, "_orbits", lambda fm: calls.append(fm) or real_orbits(fm))
    fm = closure(m2_boolean_gens())
    assert fm._rank is None
    kept = _rank(fm)
    answers = [rank_search(fm, k) for k in (3, 2, 4, 3, 0, 5)]
    answers[0].append(99)
    assert fm._rank is kept and kept == (3, [1, 2, 3]) and rank_search(fm, 3) == [1, 2, 3]
    assert calls == [fm]


def test_irredundant_matches_closure_oracle():
    # a member is necessary when the rest does not generate: subsets that
    # generate or do not, hold the identity, repeat a member, or leave
    # the generators out, against the closure oracle of a product table
    monoids = [closure(gens) for gens in (m2_boolean_gens(), ut_boolean_gens(2), ut_boolean_gens(3))]
    monoids += unit_rich_monoids(20261026, 8) + small_random_monoids(20261027, 4)
    rng = random.Random(20261028)
    seen = {"not generating": 0, "identity": 0, "repeat": 0}
    for fm in monoids:
        table, size, gens = product_table(fm), len(fm), list(fm.gens)
        subsets = [gens, gens[1:], gens + [0], gens + [gens[-1]], [0] + gens[::-1]]
        subsets += [rng.sample(range(size), min(size, k)) for k in (2, 3, 5)]
        subsets += [sorted(set(gens) | set(rng.sample(range(size), 2))) + [rng.randrange(size)]]
        for subset in subsets:
            expected = [len(generated(table, subset[:i] + subset[i + 1 :])) < size for i in range(len(subset))]
            flags = irredundant(fm, subset)
            assert flags == expected, subset
            if len(generated(table, subset)) < size:
                seen["not generating"] += 1
                assert flags == [True] * len(subset)
            else:
                for i, x in enumerate(subset):
                    if x == 0 or x in subset[:i] + subset[i + 1 :]:
                        seen["identity" if x == 0 else "repeat"] += 1
                        assert not flags[i]
    assert min(seen.values()) >= 5, seen
    capped = closure(m3_boolean_gens(), cap=100)
    for subset in (capped.gens, [1, 2]):
        try:
            irredundant(capped, subset)
            assert False
        except ValueError as exc:
            assert "closed monoid" in str(exc)


def test_queries_read_edges_not_rows(monkeypatch):
    # prime_certificate of X in M_3(B) builds no row of products, and
    # irredundant on its generators runs no generation search over the
    # whole monoid: each member's search keeps to its left divisors
    fm = closure(m3_boolean_gens())
    x0 = boolean_image(x_letter(0).realize(3, ZMAX))
    calls = {"products": 0, "splits": 0, "whole": 0, "within": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    def generated_spy(fm, words, within=None):
        calls["whole" if within is None else "within"] += 1
        if within is not None:
            assert len(within) < len(fm)
        return real_generated(fm, words, within)

    real_generated = finite._generated
    monkeypatch.setattr(finite, "_products", counted("products", finite._products))
    monkeypatch.setattr(finite, "_splits", counted("splits", finite._splits))
    monkeypatch.setattr(finite, "_generated", generated_spy)
    assert prime_certificate(x0, fm)
    assert calls == {"products": 0, "splits": 0, "whole": 0, "within": 0}
    assert irredundant(fm, fm.gens) == [True] * 5
    assert calls == {"products": 0, "splits": 0, "whole": 0, "within": 5}


# -- primes ---------------------------------------------------------------------------

def test_x_image_is_prime_in_3x3_boolean():
    fm = closure(m3_boolean_gens())
    assert len(fm) == 512
    x0 = boolean_image(x_letter(0).realize(3, ZMAX))
    assert prime_certificate(x0, fm)


def test_zero_matrix_is_not_prime():
    fm = closure(m2_boolean_gens())
    assert not prime_certificate(matrix([[0] * 2] * 2, BOOLEAN), fm)


def test_prime_certificate_brute_force_cross_check():
    # check the Cayley-walk scan against plain matrix multiplication on
    # the 16-element monoid, for every non-unit element
    fm = closure(m2_boolean_gens())
    for x in fm.elements:
        if is_invertible(x):
            continue
        naive = True
        for u in fm.elements:
            for v in fm.elements:
                if mat_mul(u, v) == x and is_invertible(u) == is_invertible(v):
                    naive = False
        assert prime_certificate(x, fm) == naive


def test_prime_certificate_matches_brute_force_on_random_monoids():
    # only left divisors get a row scanned: E13 = E12 E23 in the monoid
    # of {E12, E23} splits through E12, outside E13's own right ideal,
    # and an idempotent e splits only as e e
    nilpotent = [matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]], BOOLEAN), matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]], BOOLEAN)]
    cases = [nilpotent, [matrix([[1, 1], [0, 0]], BOOLEAN)]]
    rng = random.Random(20261019)
    cases += [random_boolean_gens(rng, n) for n in (2, 3, 3, 4, 4)]
    for gens in cases:
        fm = closure(gens, cap=200)
        if not fm.closed:
            continue
        units = [is_invertible(m) for m in fm.elements]
        split = {mat_mul(u, v) for i, u in enumerate(fm.elements) for j, v in enumerate(fm.elements)
                 if units[i] == units[j]}
        for x, unit in zip(fm.elements, units):
            if not unit:
                assert prime_certificate(x, fm) == (x not in split)


def test_prime_certificate_matches_brute_force_with_units():
    # monoids with a permutation generator, so x U has several members
    # and unit factors sit on both sides of a split: the edge scan
    # against every product of two units or two non-units
    monoids = unit_rich_monoids(20261029, 24)
    for fm in monoids:
        units = [is_invertible(m) for m in fm.elements]
        split = {mat_mul(u, v) for i, u in enumerate(fm.elements) for j, v in enumerate(fm.elements)
                 if units[i] == units[j]}
        for x, unit in zip(fm.elements, units):
            if not unit:
                assert prime_certificate(x, fm) == (x not in split)
    primes = [prime_certificate(x, fm) for fm in monoids for x in fm.elements if not is_invertible(x)]
    assert 0 < sum(primes) < len(primes)


def test_prime_certificate_rejects_units_and_strangers():
    fm = closure(m2_boolean_gens())
    try:
        prime_certificate(identity(2, BOOLEAN), fm)
        assert False
    except ValueError:
        pass
    try:
        prime_certificate(identity(3, BOOLEAN), fm)
        assert False
    except ValueError:
        pass


# -- the X family relation ---------------------------------------------------------

def test_x_family_relation():
    for s in range(-10, 11):
        for t in range(-10, 11):
            assert x_family_j_related(s, t) == (s == t or s + t == 0)


def test_x_family_relation_is_an_equivalence_on_the_grid():
    pts = range(-10, 11)
    for s in pts:
        assert x_family_j_related(s, s)
        for t in pts:
            assert x_family_j_related(s, t) == x_family_j_related(t, s)
