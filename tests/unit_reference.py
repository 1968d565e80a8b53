"""The tests' own reference for units: which scalars and which matrices
have a multiplicative inverse, read off the definitions.  The library
reads units off its Cayley graphs instead, and the tests compare the two.
"""

from tropmono.matrix import is_monomial
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
