"""The tests' own references, read off the definitions.

Units: which scalars and which matrices have a multiplicative inverse.
The library reads units off its Cayley graphs instead, and the tests
compare the two.  Powers and permutations: mat_pow by repeated squaring
and permute by index lookup, against which the tests check the
factorizer's cached powers and the m3 dispatch table's normal forms.
"""

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


def permute(m, row_perm, col_perm):
    """P_row * m * P_col.  Entry (i, j) of the result is m[row(i), col^{-1}(j)]."""
    if row_perm.n != m.n or col_perm.n != m.n:
        raise ValueError("permutation degree does not match matrix dimension")
    cinv = col_perm.inverse()
    rows = [[m.rows[row_perm(i) - 1][cinv(j) - 1] for j in range(1, m.n + 1)] for i in range(1, m.n + 1)]
    return Matrix(m.n, m.semiring, rows)
