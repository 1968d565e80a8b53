"""Generator alphabets for the monoids whose factorizations we compute.

A Generator is a symbolic letter (a tag plus parameters), not a matrix;
realize() turns one into a concrete matrix once a dimension and semiring
are fixed.  The six generating-set builders below give the alphabets:

* gens_ut_zmax(n): upper triangular tropical matrices.
* gens_u_zmax(n): unitriangular tropical matrices (symbolic E letters).
* gens_gl_zmax(n): the invertible (monomial, unit entry) group, two letters.
* gens_m2_zmax(): all of the 2x2 tropical matrices, four letters.
* gens_m3_zmax(max_x): all of the 3x3 tropical matrices; four fixed
  letters plus the infinite X family, realized up to max_x.
* gens_ut_boolean(n): upper triangular Boolean matrices.

Letter text forms (used by the CLI word syntax, one token per letter):
``A``, ``B``, ``C``, ``D``, ``I``, ``NEG_I``, ``Ai(i,v)``, ``E(i,j,v)``
and ``X(i)``.  Bare ``A``/``B`` are resolved by monoid
context: the invertible-group letters in gl and m3 words, the 2x2
letters in m2 words.
"""

from functools import cache

from .matrix import (
    MAX_DIM,
    Matrix,
    construct_A,
    construct_E,
    construct_P,
    diag,
    identity,
    mat_mul,
)
from .semiring import BOOLEAN, BOTTOM, Semiring, ZMAX, format_scalar, parse_scalar


# Letter names by kind; a letter with parameters lists them in brackets.
_NAMES = {
    "GL_A": "A",
    "GL_B": "B",
    "M2_A": "A",
    "M2_B": "B",
    "M2_C": "C",
    "M2_D": "D",
    "IDENTITY": "I",
    "NEG_I": "NEG_I",
    "DIAG_A": "Ai",
    "ELEM_E": "E",
    "M3_X": "X",
}


class Generator:
    """A symbolic alphabet letter: kind tag plus parameter tuple."""

    # _vals caches the letter's values as a word leaf (factorize._value),
    # per evaluation context, so a letter is realized at most once per
    # alphabet.
    __slots__ = ("kind", "params", "_vals")

    def __init__(self, kind: str, params=()):
        # The slots' own setters, as __setattr__ refuses: half object.__setattr__'s cost.
        _SET_KIND(self, kind)
        _SET_PARAMS(self, tuple(params))
        _SET_VALS(self, {})

    def __setattr__(self, name, value=None):
        raise AttributeError("Generator is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, Generator) and self.kind == other.kind and self.params == other.params

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return f"Generator({self.text()!r})"

    def text(self) -> str:
        name = _NAMES[self.kind]
        if not self.params:
            return name
        return f"{name}({','.join(format_scalar(p) for p in self.params)})"

    def realize(self, n: int, semiring: Semiring) -> Matrix:
        return _realize(self, n, semiring)


def _rotation(n: int, upto: int) -> tuple:
    """The cycle (1, 2, ..., upto) inside the symmetric group on 1..n, as
    a 0-based image tuple; the identity for upto = 1."""
    return (*range(1, upto), 0, *range(upto, n))


def _realize(g: Generator, n: int, semiring: Semiring) -> Matrix:
    k = g.kind
    if k == "IDENTITY":
        return identity(n, semiring)
    if k == "NEG_I":
        if semiring is not ZMAX:
            raise ValueError("NEG_I is a zmax letter")
        return diag((-1,) * n, ZMAX)
    if k == "DIAG_A":
        i, v = g.params
        return construct_A(i, v, n, semiring)
    if k == "ELEM_E":
        i, j, v = g.params
        return construct_E(i, j, n, semiring, v)
    if k == "GL_A":
        if semiring is not ZMAX or n < 2:
            raise ValueError("the invertible-group letters live in zmax, n >= 2")
        return mat_mul(construct_A(1, 1, n, ZMAX), construct_P(_rotation(n, n - 1), ZMAX))
    if k == "GL_B":
        if semiring is not ZMAX or n < 2:
            raise ValueError("the invertible-group letters live in zmax, n >= 2")
        return mat_mul(construct_A(1, -1, n, ZMAX), construct_P(_rotation(n, n), ZMAX))
    if k.startswith(("M2_", "M3_")):
        size = 2 if k.startswith("M2_") else 3
        if semiring is not ZMAX or n != size:
            raise ValueError(f"letter {g.text()} is a {size}x{size} zmax matrix, not {n}x{n} over {semiring.name}")
    if k == "M2_A":
        return Matrix(2, ZMAX, ((BOTTOM, -1), (0, BOTTOM)))
    if k == "M2_B":
        return diag((1, 0), ZMAX)
    if k == "M2_C":
        return diag((BOTTOM, 0), ZMAX)
    if k == "M2_D":
        return Matrix(2, ZMAX, ((0, 0), (0, BOTTOM)))
    if k == "M3_X":
        (i,) = g.params
        return Matrix(3, ZMAX, ((BOTTOM, 0, i), (0, BOTTOM, 0), (0, 0, BOTTOM)))
    raise AssertionError(f"unknown generator kind {k}")


# Generator.__init__'s slot setters, and the shared letter constants.
_SET_KIND, _SET_PARAMS, _SET_VALS = Generator.kind.__set__, Generator.params.__set__, Generator._vals.__set__
GL_A = Generator("GL_A")
GL_B = Generator("GL_B")
M2_A = Generator("M2_A")
M2_B = Generator("M2_B")
M2_C = Generator("M2_C")
M2_D = Generator("M2_D")
IDENTITY_LETTER = Generator("IDENTITY")
NEG_I = Generator("NEG_I")


def diag_letter(i: int, v) -> Generator:
    return Generator("DIAG_A", (i, v))


def elem_letter(i: int, j: int, v) -> Generator:
    return Generator("ELEM_E", (i, j, v))


def x_letter(i: int) -> Generator:
    if i < 0:
        raise ValueError("X letters are indexed by non-negative integers")
    return Generator("M3_X", (i,))


class GeneratingSet:
    """An alphabet bound to a monoid: listed letters plus, for the two
    infinite alphabets, a symbolic membership rule."""

    __slots__ = ("monoid", "n", "semiring", "letters", "symbolic")

    def __init__(self, monoid: str, n: int, semiring: Semiring, letters, symbolic: str | None = None):
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "symbolic", symbolic)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratingSet is immutable")

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def realized(self):
        return [g.realize(self.n, self.semiring) for g in self.letters]

    def contains(self, g: Generator) -> bool:
        """Membership including the symbolic families (any E(i,j,z) for the
        unitriangular alphabet, any X(i) for the 3x3 alphabet).  No letter
        holds a bool or a float, though True == 1 and 0.0 == 0."""
        p = g.params
        if self.monoid == "u" and g.kind == "ELEM_E":
            i, j, v = p
            return type(i) is type(j) is type(v) is int and 1 <= i < j <= self.n
        if self.monoid == "m3" and g.kind == "M3_X":
            return type(p[0]) is int and p[0] >= 0
        return all(type(x) is int or x == BOTTOM for x in p) and g in self.letters

    def __repr__(self):
        return f"GeneratingSet({self.monoid}, n={self.n}, {len(self.letters)} letters)"


def gens_ut_zmax(n: int) -> GeneratingSet:
    """Upper triangular tropical alphabet: A_i(1) for every i, the scalar
    matrix -1 * I, E_ij for i < j, and A_i(-inf) for every i.

    Cardinality 2n + 1 + n(n-1)/2.
    """
    if not (1 <= n <= MAX_DIM):
        raise ValueError(f"n={n} outside supported range 1..{MAX_DIM}")
    letters = [diag_letter(i, 1) for i in range(1, n + 1)]
    letters.append(NEG_I)
    letters += [elem_letter(i, j, 0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    letters += [diag_letter(i, BOTTOM) for i in range(1, n + 1)]
    return GeneratingSet("ut", n, ZMAX, letters)


def gens_u_zmax(n: int) -> GeneratingSet:
    """Unitriangular tropical alphabet: the identity plus every E_ij(z)
    with i < j and z an integer (a symbolic, infinite family)."""
    if not (1 <= n <= MAX_DIM):
        raise ValueError(f"n={n} outside supported range 1..{MAX_DIM}")
    symbolic = None if n == 1 else "E(i,j,z) for 1 <= i < j <= n and any integer z"
    return GeneratingSet("u", n, ZMAX, [IDENTITY_LETTER], symbolic)


def gens_gl_zmax(n: int) -> GeneratingSet:
    """The two-letter alphabet generating the invertible n x n tropical
    matrices: A scales slot 1 by 1 and rotates 1..n-1, B scales slot 1
    by -1 and rotates 1..n."""
    if not (2 <= n <= MAX_DIM):
        raise ValueError(f"the invertible group needs 2 <= n <= {MAX_DIM}, got {n}")
    return GeneratingSet("gl", n, ZMAX, [GL_A, GL_B])


def gens_m2_zmax() -> GeneratingSet:
    """Four letters generating every 2x2 tropical matrix."""
    return GeneratingSet("m2", 2, ZMAX, [M2_A, M2_B, M2_C, M2_D])


def gens_m3_zmax(max_x: int = 0) -> GeneratingSet:
    """Alphabet generating every 3x3 tropical matrix: the two invertible
    group letters, E_12, A_1(-inf), and the X family.

    X(i) has top row (-inf, 0, i) and zeros off the diagonal elsewhere;
    the letters listed here realize X(0)..X(max_x), and contains() accepts
    any X(i) with i >= 0 since the family is genuinely infinite.
    """
    if max_x < 0:
        raise ValueError("max_x must be >= 0")
    letters = [GL_A, GL_B, elem_letter(1, 2, 0), diag_letter(1, BOTTOM)]
    letters += [x_letter(i) for i in range(max_x + 1)]
    return GeneratingSet("m3", 3, ZMAX, letters, symbolic="X(i) for any integer i >= 0")


def gens_ut_boolean(n: int) -> GeneratingSet:
    """Upper triangular Boolean alphabet: identity, E_ij(1) for i < j,
    and A_i(0) for every i."""
    if not (1 <= n <= MAX_DIM):
        raise ValueError(f"n={n} outside supported range 1..{MAX_DIM}")
    letters = [IDENTITY_LETTER]
    letters += [elem_letter(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    letters += [diag_letter(i, 0) for i in range(1, n + 1)]
    return GeneratingSet("ut_boolean", n, BOOLEAN, letters)


# -- letter token grammar --------------------------------------------------

@cache
def _token_patterns():
    """The fullmatch of the Ai, E and X tokens, compiled on the first
    parse: only word parsing needs re, so importing it waits until then.
    A token with anything around it, trailing whitespace too, fails."""
    import re

    return tuple(
        re.compile(p, re.ASCII).fullmatch
        for p in (r"Ai\((\d+),([^)]+)\)", r"E\((\d+),(\d+),([^)]+)\)", r"X\((\d+)\)")
    )


# Letters without parameters by name; monoid context resolves A and B.
_COMMON = {"I": IDENTITY_LETTER, "NEG_I": NEG_I}
_BARE = {
    "gl": {**_COMMON, "A": GL_A, "B": GL_B},
    "m3": {**_COMMON, "A": GL_A, "B": GL_B},
    "m2": {**_COMMON, "A": M2_A, "B": M2_B, "C": M2_C, "D": M2_D},
}


def parse_generator(token: str, monoid: str, semiring: Semiring) -> Generator:
    """One letter token to a Generator; monoid context resolves bare names."""
    bare = _BARE.get(monoid, _COMMON)
    if token in bare:
        return bare[token]
    ai, e, x = _token_patterns()
    m = ai(token)
    if m:
        return diag_letter(int(m.group(1)), parse_scalar(m.group(2), semiring))
    m = e(token)
    if m:
        return elem_letter(int(m.group(1)), int(m.group(2)), parse_scalar(m.group(3), semiring))
    m = x(token)
    if m:
        return x_letter(int(m.group(1)))
    raise ValueError(f"bad letter token {token!r}")


# The builders by monoid name, each called with n, and the dimension of
# the families that fix one.  m3 lists X(0) only: its symbolic rule
# covers every X(i).
BUILDERS = {
    "ut": gens_ut_zmax,
    "u": gens_u_zmax,
    "gl": gens_gl_zmax,
    "m2": lambda n: gens_m2_zmax(),
    "m3": lambda n: gens_m3_zmax(),
    "ut_boolean": gens_ut_boolean,
}
FIXED_N = {"m2": 2, "m3": 3}


def generating_set(monoid: str, n: int) -> GeneratingSet:
    """Builder dispatch by monoid name, as the CLI uses it."""
    build = BUILDERS.get(monoid)
    if build is None:
        raise ValueError(f"unknown monoid {monoid!r}")
    size = FIXED_N.get(monoid, n)
    if n != size:
        raise ValueError(f"the {monoid} monoid is {size}x{size}")
    return build(n)
