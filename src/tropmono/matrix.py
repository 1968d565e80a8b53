"""Square matrices over the ground semirings, with the structural tests
(monomial, invertible, regular) that the factorization algorithms lean on.

Matrices are immutable: a tuple of row tuples plus the owning semiring.
Indices in every public message and docstring are 1-based, matching the
usual matrix notation; ``rows`` itself is of course 0-based, and so is a
permutation: a tuple of 0-based column images, one per row.

The supported dimension range is 1 <= n <= 8.  Everything here is exact
integer (or -inf) arithmetic; +inf appears only inside the regularity
residuation and never escapes a returned witness.
"""

from functools import cache, reduce
from itertools import compress, product
from operator import add, or_

from .semiring import (
    BOOLEAN,
    BOTTOM,
    Semiring,
    ZMAX,
    format_scalar,
    is_finite,
    parse_scalar,
    psi,
)

MAX_DIM = 8


class Matrix:
    __slots__ = ("n", "semiring", "rows")

    def __init__(self, n: int, semiring: Semiring, rows):
        if not (1 <= n <= MAX_DIM):
            raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} rows")
        for r in rows:
            for x in r:
                semiring.check(x)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def entry(self, i: int, j: int):
        """Entry at row i, column j, 1-based."""
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.n == other.n
            and self.semiring is other.semiring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.semiring.name, self.rows))

    def __repr__(self):
        return f"Matrix({self.semiring.name}, {format_matrix(self)!r})"


def _mk(n, semiring, rows):
    # Internal fast constructor: rows already a tuple of valid tuples.
    m = object.__new__(Matrix)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "semiring", semiring)
    object.__setattr__(m, "rows", rows)
    return m


def matrix(rows, semiring: Semiring = ZMAX) -> Matrix:
    """Build a matrix from a nested sequence, validating entries."""
    rows = tuple(tuple(r) for r in rows)
    return Matrix(len(rows), semiring, rows)


def _identity_rows(n: int, semiring: Semiring):
    z, o = semiring.zero, semiring.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def identity(n: int, semiring: Semiring = ZMAX) -> Matrix:
    return Matrix(n, semiring, _identity_rows(n, semiring))


def diag(values, semiring: Semiring = ZMAX) -> Matrix:
    values = tuple(values)
    n = len(values)
    z = semiring.zero
    return Matrix(n, semiring, tuple(tuple(values[i] if i == j else z for j in range(n)) for i in range(n)))


# -- multiplication ------------------------------------------------------

def _mul2(a, b):
    # Each cell keeps max's choice, the first maximal term, without its call.
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (x if (x := a11 + b11) >= (y := a12 + b21) else y, x if (x := a11 + b12) >= (y := a12 + b22) else y),
        (x if (x := a21 + b11) >= (y := a22 + b21) else y, x if (x := a21 + b12) >= (y := a22 + b22) else y),
    )


def _mul3(a, b):
    # As _mul2: each cell is its three terms and one conditional expression.
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = b
    x, y, z = a11 + b11, a12 + b21, a13 + b31
    c11 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a11 + b12, a12 + b22, a13 + b32
    c12 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a11 + b13, a12 + b23, a13 + b33
    c13 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a21 + b11, a22 + b21, a23 + b31
    c21 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a21 + b12, a22 + b22, a23 + b32
    c22 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a21 + b13, a22 + b23, a23 + b33
    c23 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a31 + b11, a32 + b21, a33 + b31
    c31 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a31 + b12, a32 + b22, a33 + b32
    c32 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    x, y, z = a31 + b13, a32 + b23, a33 + b33
    c33 = (x if x >= z else z) if x >= y else (y if y >= z else z)
    return ((c11, c12, c13), (c21, c22, c23), (c31, c32, c33))


def _mulz(a, b):
    bcols = tuple(zip(*b))
    return tuple([tuple([max(map(add, row, col)) for col in bcols]) for row in a])


@cache
def _bool_rows(n: int):
    """The 2^n Boolean rows of length n in mask order (column 1 is the top
    bit), and each row's mask; built on first use of the dimension."""
    rows = tuple(product((0, 1), repeat=n))
    return rows, {r: m for m, r in enumerate(rows)}


def _mulb(a, b):
    # Row i of ab is the OR of the rows of b that row i of a selects:
    # OR their masks and read the row of the result back from the table.
    rows, mask = _bool_rows(len(b))
    masks = [mask[r] for r in b]
    return tuple([rows[reduce(or_, compress(masks, r), 0)] for r in a])


def _row_product(n: int, semiring: Semiring):
    """The product of two n x n row tuples over semiring, as a function:
    unrolled for 2x2 and 3x3 tropical matrices."""
    if semiring.name == "zmax":
        return _mul3 if n == 3 else _mul2 if n == 2 else _mulz
    return _mulb


@cache
def _bool_code(n: int):
    """(encode, decode) between n x n Boolean row tuples and packed ints
    of n^2 bits: row 1 in the top n bits, each row as its mask."""
    rows, mask = _bool_rows(n)
    shifts, full = range(n * n - n, -1, -n), (1 << n) - 1

    def encode(a):
        code = 0
        for r in a:
            code = code << n | mask[r]
        return code

    return encode, lambda code: tuple([rows[code >> s & full] for s in shifts])


def _right_product(n: int, semiring: Semiring, g):
    """a -> a * g for one fixed n x n row tuple g, as a function on
    closure's element codes.  Over B a is a packed int (_bool_code), and
    row i of a * g depends on row i of a alone, so each n-bit row is
    looked up in a table of all 2^n rows, filled by mask from the last
    column up: a row whose top bit is j is a lower row plus column n - j,
    so its product ors in the mask of g's row n - j.  Over zmax a is a
    row tuple and this is the row product."""
    if semiring.name == "zmax":
        mul = _row_product(n, semiring)
        return lambda a: mul(a, g)
    _, mask = _bool_rows(n)
    products = [0]
    for r in reversed(g):
        products += [p | mask[r] for p in products]
    shifts, full = range(n * n - n, -1, -n), (1 << n) - 1

    def times_g(code):
        out = 0
        for s in shifts:
            out = out << n | products[code >> s & full]
        return out

    return times_g


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product (ab)_ij = max over k of a_ik * b_kj, * the semiring product."""
    if a.semiring is not b.semiring:
        raise ValueError(f"semiring mismatch: {a.semiring.name} vs {b.semiring.name}")
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return _mk(a.n, a.semiring, _row_product(a.n, a.semiring)(a.rows, b.rows))


# -- permutations --------------------------------------------------------

def construct_P(img, semiring: Semiring = ZMAX) -> Matrix:
    """Permutation matrix of the 0-based image tuple img: row i holds
    one in column img[i] and zero elsewhere."""
    img = tuple(img)
    n = len(img)
    if sorted(img) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {img}")
    z, o = semiring.zero, semiring.one
    return Matrix(n, semiring, tuple(tuple(o if j == img[i] else z for j in range(n)) for i in range(n)))


def construct_A(i: int, lam, n: int, semiring: Semiring = ZMAX) -> Matrix:
    """Diagonal matrix with lam in slot i and ones elsewhere on the diagonal."""
    if not (1 <= i <= n):
        raise ValueError(f"index {i} outside 1..{n}")
    semiring.check(lam)
    return diag(tuple(lam if k == i else semiring.one for k in range(1, n + 1)), semiring)


def construct_E(i: int, j: int, n: int, semiring: Semiring = ZMAX, lam=None) -> Matrix:
    """Identity plus a single off-diagonal entry lam at (i, j); lam defaults to one."""
    if i == j:
        raise ValueError(f"construct_E needs i != j, got i = j = {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"index ({i},{j}) outside 1..{n}")
    if lam is None:
        lam = semiring.one
    semiring.check(lam)
    rows = [[semiring.one if r == c else semiring.zero for c in range(1, n + 1)] for r in range(1, n + 1)]
    rows[i - 1][j - 1] = lam
    return Matrix(n, semiring, rows)


# -- structure tests -----------------------------------------------------

def boolean_image(m: Matrix) -> Matrix:
    """Entrywise support map into the Boolean semiring (a morphism)."""
    if m.semiring is not ZMAX:
        raise ValueError("boolean_image expects a zmax matrix")
    return _mk(m.n, BOOLEAN, tuple(tuple(psi(x) for x in r) for r in m.rows))


def count_bottoms(m: Matrix) -> int:
    z = m.semiring.zero
    return sum(1 for r in m.rows for x in r if x == z)


def is_monomial(m: Matrix):
    """(img, vals) when m has exactly one non-zero per row and column:
    row i holds vals[i] in column img[i], both 0-based; None otherwise."""
    z = m.semiring.zero
    img = []
    vals = []
    used = set()
    for r in m.rows:
        hits = [j for j, x in enumerate(r) if x != z]
        if len(hits) != 1 or hits[0] in used:
            return None
        used.add(hits[0])
        img.append(hits[0])
        vals.append(r[hits[0]])
    return tuple(img), tuple(vals)


def is_upper_triangular(m: Matrix) -> bool:
    z = m.semiring.zero
    return all(m.rows[i][j] == z for i in range(m.n) for j in range(i))


def is_unitriangular(m: Matrix) -> bool:
    return (
        is_upper_triangular(m)
        and all(m.rows[i][i] == m.semiring.one for i in range(m.n))
    )


# -- regularity ----------------------------------------------------------

def _residuation(m: Matrix):
    """Greatest Y with m*Y*m entrywise below m, in the completed semiring.

    Y[j][k] = min over pairs (i, l) with m[i][j] and m[k][l] both finite
    of m[i][l] - m[i][j] - m[k][l].  Pairs where either coefficient is
    bottom impose no constraint and are skipped (min of nothing = +inf);
    a finite pair with m[i][l] = -inf forces -inf.
    """
    n = m.n
    rows = m.rows
    INF = float("inf")
    finite_at = [[is_finite(x) for x in r] for r in rows]
    Y = []
    for j in range(n):
        yrow = []
        for k in range(n):
            best = INF
            for i in range(n):
                if not finite_at[i][j]:
                    continue
                mij = rows[i][j]
                for l in range(n):
                    if not finite_at[k][l]:
                        continue
                    t = rows[i][l] - mij - rows[k][l]
                    if t < best:
                        best = t
                        if best == BOTTOM:
                            break
                if best == BOTTOM:
                    break
            yrow.append(best)
        Y.append(yrow)
    return Y


def regularity_witness(m: Matrix):
    """(witness, variant) for a regular tropical matrix, (None, "") otherwise.

    The witness Y satisfies m*Y*m = m exactly.  variant is "exact" when
    the residuation produced no +inf entries, "clamped" when +inf slots
    (those multiplying only bottoms, hence irrelevant to the product)
    were replaced by a small finite value.  The residuation is the
    greatest candidate below m's constraints, so when it fails m*Y*m = m
    every Y does, and m is not regular.
    """
    if m.semiring is not ZMAX:
        raise ValueError("regularity via residuation is defined for zmax matrices only")
    Y = _residuation(m)
    INF = float("inf")
    variant = "exact"
    if any(x == INF for row in Y for x in row):
        variant = "clamped"
        finite_entries = [x for r in m.rows for x in r if is_finite(x)]
        low = (min(finite_entries) if finite_entries else 0) - 1
        Y = [[low if x == INF else x for x in row] for row in Y]
    wit = matrix(Y, ZMAX)
    if mat_mul(mat_mul(m, wit), m) == m:
        return wit, variant
    return None, ""


# -- text and JSON forms --------------------------------------------------

def format_matrix(m: Matrix) -> str:
    """Rows joined by '; ', entries by single spaces: '-inf 0 5; 0 -inf 0; ...'."""
    return "; ".join(" ".join(format_scalar(x) for x in r) for r in m.rows)


def parse_matrix(text: str, semiring: Semiring = ZMAX) -> Matrix:
    parts = text.split(";")
    rows = []
    for part in parts:
        toks = part.split()
        if not toks:
            raise ValueError("empty row in matrix text")
        rows.append(tuple(parse_scalar(t, semiring) for t in toks))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"matrix text is not square: {text!r}")
    return Matrix(n, semiring, rows)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "n": m.n,
        "semiring": m.semiring.name,
        "rows": [["-inf" if x == BOTTOM else x for x in r] for r in m.rows],
    }
