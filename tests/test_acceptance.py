"""The acceptance gate: ten criteria, one test per criterion.

Each test is self-contained, pins its tolerance (exact equality
throughout; the scalars are integers or -inf) and asserts its runtime
bound.  Run with -s to see the per-criterion summary lines; under
plain `pytest -v` the pass/fail line per criterion is the test line
itself.
"""

import itertools
import random
import time

from tropmono.factorize import _m3_fill, evaluate, factor_gl, factor_m2, factor_m3, factor_unitriangular, factor_ut
from tropmono.finite import (
    _orbits,
    _units,
    closure,
    is_generating,
    prime_certificate,
    rank_search,
    x_family_j_related,
)
from tropmono.genset import gens_m2_zmax, gens_m3_zmax, gens_ut_boolean, x_letter
from tropmono.matrix import (
    boolean_image,
    construct_A,
    construct_E,
    construct_P,
    diag,
    identity,
    mat_mul,
    matrix,
    parse_matrix,
    regularity_witness,
)
from tropmono.semiring import BOOLEAN, BOTTOM, ZMAX, is_finite

from unit_reference import inverse, own_eval


def rnd_entry(rng, p_bot=0.3, lo=-20, hi=20):
    return BOTTOM if rng.random() < p_bot else rng.randint(lo, hi)


def test_criterion_1_factorization_soundness_3x3():
    """Multiply-back is entry-exact on the full {-inf,0,1} grid (3^9
    matrices) and on 10^4 random matrices with entries in
    {-inf} u [-20,20]; a seeded twentieth of the words is also
    multiplied out by own_eval, which shares no code with evaluate.
    Tolerance: exact equality.  Budget: 30 s."""
    t0 = time.monotonic()
    pick, sampled = random.Random(1), 0

    def check(m):
        nonlocal sampled
        w = factor_m3(m)
        assert evaluate(w) == m
        if pick.random() < 0.05:
            assert own_eval(w) == m.rows
            sampled += 1

    for cells in itertools.product((BOTTOM, 0, 1), repeat=9):
        check(matrix([cells[0:3], cells[3:6], cells[6:9]]))
    rng = random.Random(20260815)
    for _ in range(10_000):
        check(matrix([[rnd_entry(rng) for _ in range(3)] for _ in range(3)]))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 1: PASS (19683 grid + 10000 random, exact, {sampled} also by own_eval, {elapsed:.1f}s)")


def test_criterion_2_factorization_soundness_ut_u_gl_m2():
    """10^3 random instances per family: upper triangular, unit
    triangular, and invertible matrices spread over n in {2,3,4,5}
    (250 each), plus 10^3 full 2x2 matrices; a seeded tenth of the
    words is also multiplied out by own_eval.  Exact.  Budget: 10 s."""
    rng = random.Random(20260816)
    t0 = time.monotonic()
    pick, sampled = random.Random(2), 0

    def check(m, factorizer):
        nonlocal sampled
        w = factorizer(m)
        assert evaluate(w) == m
        if pick.random() < 0.1:
            assert own_eval(w) == m.rows
            sampled += 1

    for n in (2, 3, 4, 5):
        for _ in range(250):
            rows = [[rnd_entry(rng) if j >= i else BOTTOM for j in range(n)] for i in range(n)]
            check(matrix(rows), factor_ut)
        for _ in range(250):
            rows = [
                [0 if j == i else (rnd_entry(rng) if j > i else BOTTOM) for j in range(n)]
                for i in range(n)
            ]
            check(matrix(rows), factor_unitriangular)
        for _ in range(250):
            img = list(range(n))
            rng.shuffle(img)
            check(mat_mul(diag([rng.randint(-20, 20) for _ in range(n)]), construct_P(img)), factor_gl)
    for _ in range(1000):
        check(matrix([[rnd_entry(rng) for _ in range(2)] for _ in range(2)]), factor_m2)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 2: PASS (4x1000 instances, exact, {sampled} also by own_eval, {elapsed:.1f}s)")


def test_criterion_3_boolean_closure_oracle():
    """Closure sizes are exactly 16 (all 2x2 Boolean matrices from the
    support images of the 2x2 alphabet), 8, and 64 (upper triangular
    Boolean patterns, 2^(n(n+1)/2) for n = 2, 3).  Budget: 1 s."""
    t0 = time.monotonic()
    fm = closure([boolean_image(g) for g in gens_m2_zmax().realized()])
    assert len(fm) == 16 and fm.closed
    fm2 = closure([g.realize(2, BOOLEAN) for g in gens_ut_boolean(2).letters])
    assert len(fm2) == 8 and fm2.closed
    fm3 = closure([g.realize(3, BOOLEAN) for g in gens_ut_boolean(3).letters])
    assert len(fm3) == 64 and fm3.closed
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 3: PASS (16/8/64 exact, {elapsed:.2f}s)")


def test_criterion_4_rank_of_full_2x2_boolean_is_3():
    """No pair among all C(16,2) = 120 pairs generates the 16-element
    monoid; some triple does.  Budget: 5 s."""
    t0 = time.monotonic()
    fm = closure([boolean_image(g) for g in gens_m2_zmax().realized()])
    assert len(fm) == 16
    pairs = list(itertools.combinations(range(16), 2))
    assert len(pairs) == 120
    assert not any(is_generating(fm, p) for p in pairs)
    assert rank_search(fm, 2) is None
    triple = rank_search(fm, 3)
    assert triple is not None and is_generating(fm, triple)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 4: PASS (120 pairs fail, triple {triple} generates, {elapsed:.2f}s)")


def boolean_product(a, b):
    """Product of 0/1 matrices given as tuples of row bitmasks: row i of
    a * b is the union of the rows of b that row i of a selects."""
    out = []
    for row in a:
        acc = 0
        for k, brow in enumerate(b):
            if row >> k & 1:
                acc |= brow
        out.append(acc)
    return tuple(out)


def support(m):
    """psi(m), the 0/1 support of m, as row bitmasks: bit j of row i is
    set when entry (i, j + 1) is finite (tropical m) or 1 (Boolean m)."""
    nonzero = is_finite if m.semiring is ZMAX else bool
    return tuple(sum(1 << j for j, x in enumerate(row) if nonzero(x)) for row in m.rows)


def boolean_closure(gens, n):
    """Every product of the n x n 0/1 matrices gens (row bitmasks), the
    identity included, breadth first."""
    one = tuple(1 << i for i in range(n))
    seen, todo = {one}, [one]
    for m in todo:
        for g in gens:
            p = boolean_product(m, g)
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def test_criterion_5_prime_certificate_in_3x3_boolean():
    """The support image of every corner letter is one fixed Boolean
    matrix, and it is prime in the full 512-element 3x3 Boolean monoid:
    a test-owned 512^2 product table finds exactly 6 prime non-units, X
    among them, and prime_certificate agrees on all 506 non-units.
    Budget: 10 s."""
    t0 = time.monotonic()
    fm = closure([boolean_image(g) for g in gens_m3_zmax().realized()])
    assert len(fm) == 512 and fm.closed
    images = {boolean_image(x_letter(s).realize(3, ZMAX)) for s in range(11)}
    assert len(images) == 1  # every corner parameter has the same support
    x = images.pop()
    # every 3x3 0/1 matrix as row bitmasks; the units are the permutations
    mats = list(itertools.product(range(8), repeat=3))
    units = {m: sorted(m) == [1, 2, 4] for m in mats}
    split = set()  # products of two units or of two non-units
    for u in mats:
        for v in mats:
            if units[u] == units[v]:
                split.add(boolean_product(u, v))
    primes = {m for m in mats if not units[m] and m not in split}
    assert len(primes) == 6
    bits = tuple(sum(1 << j for j, e in enumerate(row) if e) for row in x.rows)
    assert bits in primes
    for m in mats:
        if not units[m]:
            rows = [[row >> j & 1 for j in range(3)] for row in m]
            assert prime_certificate(matrix(rows, BOOLEAN), fm) == (m in primes)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 5: PASS (512 elements, 6 primes of 506 non-units, {elapsed:.2f}s)")


def corner(s):
    """X(s) for any integer s: bottom diagonal, s in slot (1,3), 0 elsewhere."""
    return matrix([[BOTTOM, 0, s], [0, BOTTOM, 0], [0, 0, BOTTOM]])


def permanent_spread(m):
    """Largest minus smallest finite term sum_i m[i][p(i)] of the 3x3
    tropical permanent.  For X(s) the only finite terms are its two
    3-cycle weights, 0 and s, so this is their difference up to sign."""
    terms = [sum(m.entry(i, p[i - 1]) for i in (1, 2, 3)) for p in itertools.permutations((1, 2, 3))]
    finite = [x for x in terms if is_finite(x)]
    return max(finite) - min(finite)


def test_criterion_6_corner_family_j_classes():
    """The family relation is s = t or s + t = 0 on the whole grid
    [-10,10]^2, so the eleven realized corner letters land in eleven
    distinct classes (the desk-scale witness that the 3x3 tropical
    monoid cannot be finitely generated).

    The paper proves that corner matrices are J-related only through
    unit (monomial) multiples.  Checked here by multiplication: for
    t = -s, monomial u and v with u X(s) v = X(t) exist; and a monomial
    factor on either side shifts every permanent term by one constant
    and permutes them, so the spread of the finite terms (|s| for X(s))
    is kept and no unit multiple of X(s) is X(t) when |t| != |s|."""
    swap = construct_P((0, 2, 1))
    rng = random.Random(20260817)
    monomials = [
        mat_mul(diag([rng.randint(-5, 5) for _ in range(3)]), construct_P(p))
        for p in itertools.permutations(range(3))
        for _ in range(3)
    ]
    for s in range(-10, 11):
        x = corner(s)
        assert mat_mul(mat_mul(mat_mul(construct_A(1, -s, 3), swap), x), swap) == corner(-s)
        assert permanent_spread(x) == abs(s)
        for u in monomials:
            assert permanent_spread(mat_mul(u, x)) == abs(s)
            assert permanent_spread(mat_mul(x, u)) == abs(s)
    for s in range(-10, 11):
        for t in range(-10, 11):
            related = x_family_j_related(s, t)
            assert related == (permanent_spread(corner(s)) == permanent_spread(corner(t)))
            assert related == (s == t or s + t == 0)
    # the letters realize to distinct matrices, pairwise unrelated
    mats = [x_letter(i).realize(3, ZMAX) for i in range(11)]
    assert mats == [corner(i) for i in range(11)]
    assert len(set(mats)) == 11
    classes = []
    for s in range(11):
        for cls in classes:
            if x_family_j_related(s, cls[0]):
                cls.append(s)
                break
        else:
            classes.append([s])
    assert len(classes) == 11
    print("criterion 6: PASS (relation exact on [-10,10]^2, monomial witnesses and invariant, 11 distinct classes)")


def test_criterion_7_regularity():
    """Residuation rejects every corner letter X_0..X_10 and produces a
    verified witness (m * w * m = m, exact) for the identity, all three
    A_i(-inf), E_12, and the 2x2 letter with rows (0 0; 0 -inf).

    The rejections are also certified without residuation: the support
    map psi is a homomorphism, so X w X = X for a tropical w would give
    psi(X) psi(w) psi(X) = psi(X), and no g among the 512 elements of
    M_3(B) satisfies psi(X) g psi(X) = psi(X).  Budget: 1 s."""
    t0 = time.monotonic()
    for s in range(11):
        x = x_letter(s).realize(3, ZMAX)
        wit, variant = regularity_witness(x)
        assert wit is None and variant == ""
    images = {support(x_letter(s).realize(3, ZMAX)) for s in range(11)}
    assert len(images) == 1
    px = images.pop()
    every = list(itertools.product(range(8), repeat=3))
    assert not any(boolean_product(boolean_product(px, g), px) == px for g in every)
    accepted = [identity(3)]
    accepted += [construct_A(i, BOTTOM, 3) for i in (1, 2, 3)]
    accepted.append(construct_E(1, 2, 3))
    accepted.append(parse_matrix("0 0; 0 -inf"))
    for m in accepted:
        wit, variant = regularity_witness(m)
        assert wit is not None and variant in ("exact", "clamped")
        assert mat_mul(mat_mul(m, wit), m) == m
        # the certificate is not vacuous: a regular support has its g
        if m.n == 3:
            pm = support(m)
            assert any(boolean_product(boolean_product(pm, g), pm) == pm for g in every)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 7: PASS (11 rejections, psi-certified over 512, 6 verified witnesses, {elapsed:.2f}s)")


def test_criterion_8_irredundancy_invariants():
    """Random words over the three-letter alphabets obtained by dropping
    one letter from {A, B, E_12, A_1(-inf)}: without A_1(-inf) every
    product keeps at least one finite entry in each row and column;
    without E_12 it keeps at most one.  10^4 words each, fixed seed,
    zero violations.  (The corner letters are excluded: any of them
    already carries two finite entries in a row, so the at-most-one
    half is a statement about the other four letters.)

    Exactly, too: the support map psi is a homomorphism, so every
    word's support lies in the Boolean closure of its letters' supports
    (at most 512 elements), and every element of each closure keeps the
    invariant."""
    letters = {g.text(): g.realize(3, ZMAX) for g in gens_m3_zmax().letters}
    no_bottom_scaler = [letters["A"], letters["B"], letters["E(1,2,0)"]]
    no_elem = [letters["A"], letters["B"], letters["Ai(1,-inf)"]]
    rng = random.Random(20260817)

    def rand_word(gens):
        m = identity(3)
        for _ in range(rng.randint(1, 14)):
            m = mat_mul(m, rng.choice(gens))
        return m

    violations = 0
    for _ in range(10_000):
        m = rand_word(no_bottom_scaler)
        for i in range(1, 4):
            if not any(is_finite(m.entry(i, j)) for j in range(1, 4)):
                violations += 1
            if not any(is_finite(m.entry(j, i)) for j in range(1, 4)):
                violations += 1
    for _ in range(10_000):
        m = rand_word(no_elem)
        for i in range(1, 4):
            if sum(1 for j in range(1, 4) if is_finite(m.entry(i, j))) > 1:
                violations += 1
            if sum(1 for j in range(1, 4) if is_finite(m.entry(j, i))) > 1:
                violations += 1
    assert violations == 0
    t0 = time.monotonic()
    full = boolean_closure([support(m) for m in no_bottom_scaler], 3)
    assert all(all(m) and m[0] | m[1] | m[2] == 0b111 for m in full)
    sparse = boolean_closure([support(m) for m in no_elem], 3)
    assert all(all(r & (r - 1) == 0 for r in m) and not (m[0] & m[1] or m[0] & m[2] or m[1] & m[2]) for m in sparse)
    elapsed = time.monotonic() - t0
    print(f"criterion 8: PASS (2 x 10000 words, zero violations; exact over closures of {len(full)} and "
          f"{len(sparse)} supports, {elapsed:.2f}s)")


def test_criterion_9_bottom_pattern_coverage():
    """Exhaustive audit of all 2^9 bottom patterns: every pattern with
    at least four bottoms can be row/column permuted to an upper
    triangular pattern or to a 1+2 block diagonal pattern (top-left
    cell plus a lower-right 2x2 block).  Zero escapes, which is what
    the dense >= 4-bottom branch of the 3x3 factorizer relies on."""
    perms = list(itertools.permutations(range(3)))
    escapes = []
    for bits in range(512):
        bottom = {(i, j) for i in range(3) for j in range(3) if bits >> (3 * i + j) & 1}
        if len(bottom) < 4:
            continue
        ok = False
        for rho in perms:
            for gamma in perms:
                moved = {(inverse(rho)[i], gamma[j]) for (i, j) in bottom}
                if {(1, 0), (2, 0), (2, 1)} <= moved:
                    ok = True  # upper triangular up to permutation
                elif {(0, 1), (0, 2), (1, 0), (2, 0)} <= moved:
                    ok = True  # 1 + 2 block diagonal up to permutation
                if ok:
                    break
            if ok:
                break
        if not ok:
            escapes.append(bottom)
    assert escapes == []
    # The dispatch table that factor_m3 runs agrees: every such pattern
    # goes to the triangular or block branch, except the six invertible
    # (monomial) patterns, which the group word takes first.
    routed = [_m3_fill(bits)[0] for bits in range(512) if bin(bits).count("1") >= 4]
    assert set(routed) <= {"ut", "block", "gl"} and routed.count("gl") == 6
    print("criterion 9: PASS (all >=4-bottom patterns covered, zero escapes)")


def test_criterion_10_ut_boolean_alphabet_is_the_unique_minimum():
    """Minimality, first step: for n = 2..5 each non-identity letter of
    the UT_n(B) alphabet is a required unit orbit on its own, and 1 is
    the only unit.  Every generating set meets every required orbit, so
    it holds every letter, and the alphabet is the unique minimum
    generating set.  For n <= 4 a test-owned closure of the other
    letters misses each letter.  Budget: 10 s."""
    t0 = time.monotonic()
    for n in range(2, 6):
        t1 = time.monotonic()
        gens = [g.realize(n, BOOLEAN) for g in gens_ut_boolean(n).letters]
        fm = closure(gens)
        assert fm.closed and len(fm) == 2 ** (n * (n + 1) // 2)
        letters = set(fm.gens) - {0}
        assert len(letters) == n * (n + 1) // 2 == len(gens) - 1
        assert sorted(sorted(m) for m, req in zip(*_orbits(fm)) if req) == sorted([g] for g in letters)
        assert _units(fm)[0] == [True] + [False] * (len(fm) - 1)
        independent = "-"
        if n <= 4:
            bits = [support(g) for g in gens[1:]]
            for k, b in enumerate(bits):
                assert b not in boolean_closure(bits[:k] + bits[k + 1:], n)
            independent = f"{len(bits)} letters outside the others' closures"
        print(f"criterion 10: UT_{n}(B) {len(fm)} elements, {len(letters)} singleton required orbits, "
              f"1 unit, {independent}, {time.monotonic() - t1:.2f}s")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 10: PASS (UT_n(B) alphabets minimum and unique for n = 2..5, {elapsed:.1f}s)")
