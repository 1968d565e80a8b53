"""Scalar arithmetic for the two ground semirings.

Everything downstream works over one of two commutative semirings:

* ``zmax``, the tropical integers: carrier Z together with -inf, addition
  is max, multiplication is ordinary integer +, zero is -inf, one is 0.
* ``boolean``, the two-element semifield {0, 1}: addition is max (or),
  multiplication is min (and), zero is 0, one is 1.

Tropical scalars are plain python ints, with ``float('-inf')`` standing
for the bottom element.  That float is a genuinely distinct value (no
integer sentinel to overflow), and both ``max`` and ``+`` treat it
exactly: ``max(x, -inf) == x`` and ``x + -inf == -inf`` for every int x.
Python ints are arbitrary precision, so tropical multiplication can
never wrap; there is no overflow to detect.

Boolean scalars are the ints 0 and 1.
"""

BOTTOM = float("-inf")


def is_finite(x) -> bool:
    """True for an actual integer, False for the bottom element."""
    return x != BOTTOM


class Semiring:
    """One of the two ground semirings: its name, zero, one and scalar checks.

    Instances are the module constants ZMAX and BOOLEAN; nothing else
    should ever construct one.  Both are commutative, zero-divisor-free,
    totally ordered semifields, and anti-negative: the only additively
    invertible element is the zero.
    """

    __slots__ = ("name", "zero", "one")

    def __init__(self, name, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    def __repr__(self):
        return f"Semiring({self.name})"

    # -- domain checks -------------------------------------------------

    def contains(self, x) -> bool:
        # bool is excluded on purpose even though True == 1: scalars stay
        # canonical ints so printing and packing never see True/False
        if self.name == "zmax":
            return isinstance(x, int) and not isinstance(x, bool) or x == BOTTOM
        return isinstance(x, int) and not isinstance(x, bool) and x in (0, 1)

    def check(self, x):
        """Return x unchanged, or raise ValueError if it is not a scalar here."""
        if not self.contains(x):
            raise ValueError(f"not a {self.name} scalar: {x!r}")
        return x


ZMAX = Semiring("zmax", BOTTOM, 0)
BOOLEAN = Semiring("boolean", 0, 1)

_BY_NAME = {"zmax": ZMAX, "boolean": BOOLEAN}


def semiring_by_name(name: str) -> Semiring:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown semiring {name!r} (expected 'zmax' or 'boolean')") from None


def psi(x):
    """The support morphism zmax -> boolean: -inf to 0, every int to 1.

    Respects both operations and the identities, which is what lets
    Boolean facts about a matrix pattern pull back to tropical ones.
    """
    ZMAX.check(x)
    return 0 if x == BOTTOM else 1


# -- text form ----------------------------------------------------------
#
# One scalar is one token: an optional-sign decimal integer, or exactly
# "-inf" (case sensitive) for the tropical bottom.  Boolean scalars are
# the tokens 0 and 1.

def format_scalar(x) -> str:
    if x == BOTTOM:
        return "-inf"
    return str(x)


def parse_scalar(token: str, semiring: Semiring):
    if semiring.name == "zmax":
        if token == "-inf":
            return BOTTOM
        stripped = token[1:] if token[:1] in "+-" else token
        if stripped.isdigit() and stripped.isascii():
            return int(token)
        raise ValueError(f"bad zmax scalar {token!r}")
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise ValueError(f"bad boolean scalar {token!r}")
