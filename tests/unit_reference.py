"""The tests' own references, read off the definitions.

Units: which scalars and which matrices have a multiplicative inverse.
The library reads units off its Cayley graphs instead, and the tests
compare the two.  Powers and permutations: mat_pow by repeated squaring
and permute by index lookup over 0-based image tuples (with their own
inverse), against which the tests check the factorizer's cached powers
and the m3 dispatch table's normal forms.
Words: own_eval multiplies a word DAG out with own_mul, the max-plus
product by its definition, sharing no code with the library's evaluator.
"""

from tropmono.factorize import _Run
from tropmono.genset import Generator
from tropmono.matrix import Matrix, identity, is_monomial, mat_mul
from tropmono.semiring import BOTTOM, ZMAX


def is_unit(semiring, a) -> bool:
    """Multiplicatively invertible: every finite tropical int, or Boolean 1."""
    if semiring is ZMAX:
        return a != BOTTOM
    return a == 1


def is_invertible(m) -> bool:
    """Invertible means monomial with every surviving entry a unit."""
    mono = is_monomial(m)
    if mono is None:
        return False
    _, vals = mono
    return all(is_unit(m.semiring, v) for v in vals)


def mat_pow(m, k: int):
    """m^k by repeated squaring; the identity for k = 0."""
    if k < 0:
        raise ValueError("negative matrix power")
    acc, base = None, m
    while k:
        if k & 1:
            acc = base if acc is None else mat_mul(acc, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return identity(m.n, m.semiring) if acc is None else acc


def inverse(img):
    """The inverse of a 0-based image tuple: the positions sorted by image."""
    return tuple(sorted(range(len(img)), key=img.__getitem__))


def permute(m, row_img, col_img):
    """P_row * m * P_col for 0-based image tuples.  Entry (i, j) of the
    result is m[row[i], col^{-1}[j]]."""
    if len(row_img) != m.n or len(col_img) != m.n:
        raise ValueError("permutation degree does not match matrix dimension")
    cinv = inverse(col_img)
    rows = [[m.rows[row_img[i]][cinv[j]] for j in range(m.n)] for i in range(m.n)]
    return Matrix(m.n, m.semiring, rows)


def own_mul(a, b):
    # the max-plus product by its definition: row of a against column of b
    cols = list(zip(*b))
    return tuple(tuple(max([x + y for x, y in zip(row, col)]) for col in cols) for row in a)


def own_eval(w):
    """A zmax word DAG multiplied out without the library's evaluator: a
    memoized walk over the realized letters, with own_mul for products
    and square-and-multiply for powers."""
    n = w.n
    memo = {}
    # letter^(2^i) for i = 0, 1, ..., shared by the runs of one letter
    squares = {}

    def times(x, y):
        # None is the identity
        return y if x is None else x if y is None else own_mul(x, y)

    def power(chain, k):
        # chain holds base^(2^i) for i = 0, 1, ...; it grows as needed
        out, i = None, 0
        while k:
            if i == len(chain):
                chain.append(times(chain[-1], chain[-1]))
            if k & 1:
                out = times(out, chain[i])
            k >>= 1
            i += 1
        return out

    def walk(node):
        if id(node) not in memo:
            if isinstance(node, Generator):
                out = node.realize(n, ZMAX).rows
            elif isinstance(node, _Run):
                # each letter k times in a row
                out = None
                for g in node.parts:
                    out = times(out, power(squares.setdefault(g, [walk(g)]), node.k))
            else:
                out = None
                for p in node.parts:
                    out = times(out, walk(p))
            memo[id(node)] = out
        return memo[id(node)]

    out = walk(w.root)
    return tuple(tuple(0 if i == j else BOTTOM for j in range(n)) for i in range(n)) if out is None else out
