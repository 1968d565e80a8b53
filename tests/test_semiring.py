"""Semiring axioms and scalar plumbing.

The boolean case is small enough to check exhaustively; the tropical
case gets a big seeded random sweep plus hypothesis on top.
"""

import itertools
import operator
import random

from hypothesis import given, strategies as st

from tropmono.semiring import (
    BOOLEAN,
    BOTTOM,
    ZMAX,
    format_scalar,
    is_finite,
    parse_scalar,
    psi,
    semiring_by_name,
)

from unit_reference import is_unit

tropical_scalars = st.one_of(st.just(BOTTOM), st.integers(-50, 50))

# The scalar operations the matrix products inline: (max, +) tropically,
# (max, min) on the Booleans.
ZMAX_OPS = (max, operator.add)
BOOLEAN_OPS = (max, min)


def check_axioms(sr, ops, a, b, c):
    add, mul = ops
    # commutative additive monoid with identity zero
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, sr.zero) == a
    # multiplicative monoid with identity one, zero absorbs
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, sr.one) == a
    assert mul(sr.one, a) == a
    assert mul(a, sr.zero) == sr.zero
    assert mul(sr.zero, a) == sr.zero
    # distributivity on both sides
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


def test_boolean_axioms_exhaustive():
    for a, b, c in itertools.product((0, 1), repeat=3):
        check_axioms(BOOLEAN, BOOLEAN_OPS, a, b, c)


def test_tropical_axioms_random_sweep():
    rng = random.Random(2024)

    def draw():
        if rng.random() < 0.2:
            return BOTTOM
        return rng.randint(-10 ** 6, 10 ** 6)

    for _ in range(100_000):
        check_axioms(ZMAX, ZMAX_OPS, draw(), draw(), draw())


@given(tropical_scalars, tropical_scalars, tropical_scalars)
def test_tropical_axioms_hypothesis(a, b, c):
    check_axioms(ZMAX, ZMAX_OPS, a, b, c)


@given(tropical_scalars, tropical_scalars)
def test_anti_negativity(a, b):
    # a sum can only vanish when both terms vanish
    if max(a, b) == ZMAX.zero:
        assert a == ZMAX.zero and b == ZMAX.zero


def test_contains_and_check():
    assert ZMAX.contains(5) and ZMAX.contains(BOTTOM)
    assert not ZMAX.contains(1.5)
    assert not ZMAX.contains(True)  # bools are not scalars here
    assert BOOLEAN.contains(0) and BOOLEAN.contains(1)
    assert not BOOLEAN.contains(2)
    assert not BOOLEAN.contains(True)
    try:
        BOOLEAN.check(7)
        assert False, "check should reject 7"
    except ValueError:
        pass


def test_units():
    assert is_unit(ZMAX, 0) and is_unit(ZMAX, -3) and is_unit(ZMAX, 41)
    assert not is_unit(ZMAX, BOTTOM)
    assert is_unit(BOOLEAN, 1)
    assert not is_unit(BOOLEAN, 0)


@given(tropical_scalars, tropical_scalars)
def test_units_multiply(a, b):
    # units are closed under product, and a product with a non-unit
    # is a non-unit (anti-negative semifield, so units = finite)
    assert is_unit(ZMAX, a + b) == (is_unit(ZMAX, a) and is_unit(ZMAX, b))


@given(tropical_scalars, tropical_scalars)
def test_psi_is_a_morphism(a, b):
    for zop, bop in zip(ZMAX_OPS, BOOLEAN_OPS):
        assert psi(zop(a, b)) == bop(psi(a), psi(b))
    assert psi(ZMAX.zero) == BOOLEAN.zero
    assert psi(ZMAX.one) == BOOLEAN.one


def test_psi_rejects_foreign_values():
    try:
        psi(0.5)
        assert False
    except ValueError:
        pass


def test_scalar_text_round_trip():
    for x in (BOTTOM, -17, 0, 3, 1234):
        assert parse_scalar(format_scalar(x), ZMAX) == x
    assert format_scalar(BOTTOM) == "-inf"
    assert parse_scalar("-inf", ZMAX) == BOTTOM
    assert parse_scalar("+7", ZMAX) == 7


def test_scalar_parse_rejects():
    for bad in ("-INF", "-Inf", "inf", "1.5", "0x3", "", "--2", "one"):
        try:
            parse_scalar(bad, ZMAX)
            assert False, bad
        except ValueError:
            pass
    for bad in ("2", "-inf", "-1"):
        try:
            parse_scalar(bad, BOOLEAN)
            assert False, bad
        except ValueError:
            pass


def test_is_finite():
    assert is_finite(0) and is_finite(-100)
    assert not is_finite(BOTTOM)


def test_lookup_by_name():
    assert semiring_by_name("zmax") is ZMAX
    assert semiring_by_name("boolean") is BOOLEAN
    try:
        semiring_by_name("nope")
        assert False
    except ValueError:
        pass
