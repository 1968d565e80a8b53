"""Seeded inputs for the four benchmark workloads.

Everything here is plain data (tuples of ints and float('-inf'), batch
file text, 0/1 rows): the library never generates its own inputs, and
this module does not import it.  The same seed gives the same rounds.

Each workload is a stream of rounds.  A measurement always runs whole
rounds, so the mix of item kinds in a run does not depend on how many
rounds fit into the time budget; the latency percentiles then sit at
the same place in the mix on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library", "cli" or "finite"
    rounds: Callable  # (seed, smoke) -> iterator of rounds
    tail_q: float  # fixed tail percentile, as a fraction
    min_rounds: int  # enough rounds for ten samples beyond tail_q
    rss_round: int  # peak RSS is read after this many rounds
    trace_rounds: int  # rounds per traced-run worker, per 10 s of --seconds
    cold: tuple  # the first, cold operation, timed as part of setup_s


def _entry(rng, p_bottom, lo, hi):
    return NEG_INF if rng.random() < p_bottom else rng.randint(lo, hi)


def _square(rng, n, p_bottom, lo, hi):
    return tuple(tuple(_entry(rng, p_bottom, lo, hi) for _ in range(n)) for _ in range(n))


def _grid_member(rng, mask):
    # The {-inf, 0, 1} grid matrix with bottoms exactly at the set bits of mask.
    cells = [NEG_INF if mask >> k & 1 else rng.randint(0, 1) for k in range(9)]
    return (tuple(cells[0:3]), tuple(cells[3:6]), tuple(cells[6:9]))


def _upper(rng, n, lo, hi, unit_diagonal):
    return tuple(
        tuple(
            (0 if unit_diagonal and i == j else rng.randint(lo, hi)) if j >= i else NEG_INF
            for j in range(n)
        )
        for i in range(n)
    )


def _monomial(rng, n, lo, hi):
    img = list(range(n))
    rng.shuffle(img)
    return tuple(
        tuple(rng.randint(lo, hi) if img[i] == j else NEG_INF for j in range(n)) for i in range(n)
    )


# -- m3_grid -----------------------------------------------------------------

def m3_grid_rounds(seed, smoke=False):
    """Per round: one grid matrix for each of the 512 bottom patterns
    (a seeded member of the pattern, patterns in seeded order), with one
    random matrix (entries in [-20, 20], bottom probability 0.3, as in
    acceptance criterion 1) after every second grid matrix."""
    rng = random.Random(seed)
    patterns = list(range(512))
    while True:
        rng.shuffle(patterns)
        chosen = patterns[:32] if smoke else patterns
        out = []
        for i, mask in enumerate(chosen):
            out.append(("m3", _grid_member(rng, mask)))
            if i % 2 == 1:
                out.append(("m3", _square(rng, 3, 0.3, -20, 20)))
        yield out


M3_COLD = ("m3", ((3, -2, 5), (0, NEG_INF, 1), (7, 4, -6)))


# -- families_wide -------------------------------------------------------------

def families_wide_rounds(seed, smoke=False):
    """Per round, in seeded order: one ut, u and gl matrix for each
    n = 3..6 and one dense m2 matrix, all finite entries uniform in
    [-10^6, 10^6]."""
    rng = random.Random(seed)
    sizes = (3, 4) if smoke else (3, 4, 5, 6)
    bound = 1000 if smoke else 10 ** 6
    kinds = [(fam, n) for fam in ("ut", "u", "gl") for n in sizes] + [("m2", 2)]
    while True:
        rng.shuffle(kinds)
        out = []
        for fam, n in kinds:
            if fam == "ut":
                rows = _upper(rng, n, -bound, bound, unit_diagonal=False)
            elif fam == "u":
                rows = _upper(rng, n, -bound, bound, unit_diagonal=True)
            elif fam == "gl":
                rows = _monomial(rng, n, -bound, bound)
            else:
                rows = _square(rng, 2, 0.0, -bound, bound)
            out.append((fam, rows))
        yield out


FAMILIES_COLD = ("ut", ((123456, -654321, 1000000), (NEG_INF, -999999, 42), (NEG_INF, NEG_INF, 777777)))


# -- cli_batch -------------------------------------------------------------------

def format_rows(rows):
    return "; ".join(" ".join("-inf" if x == NEG_INF else str(x) for x in r) for r in rows)


def cli_batch_rounds(seed, smoke=False):
    """Per round, one `factor --batch` call for each of three seeded batch
    files: m3 (entries [-20, 20]), m2 ([-1000, 1000]), both with bottom
    probability 0.3, and gl n=4 (monomial, entries [-50, 50]).  Line
    counts keep each call near a quarter second at the seed commit."""
    rng = random.Random(seed)
    counts = (2, 2, 2) if smoke else (6, 12, 3)
    while True:
        yield [
            ("m3", 3, [_square(rng, 3, 0.3, -20, 20) for _ in range(counts[0])]),
            ("m2", 2, [_square(rng, 2, 0.3, -1000, 1000) for _ in range(counts[1])]),
            ("gl", 4, [_monomial(rng, 4, -50, 50) for _ in range(counts[2])]),
        ]


CLI_COLD = ("m3", 3, [M3_COLD[1]])


# -- boolean_finite ----------------------------------------------------------------

def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _with(rows, cells):
    out = [list(r) for r in rows]
    for (i, j), v in cells.items():
        out[i][j] = v
    return tuple(tuple(r) for r in out)


def ut_boolean_gens(n):
    """Boolean images of the ut_boolean alphabet: I, E(i,j,1) for i < j
    and Ai(i,0) for every i."""
    ident = _identity(n)
    gens = [ident]
    gens += [_with(ident, {(i, j): 1}) for i in range(n) for j in range(i + 1, n)]
    gens += [_with(ident, {(i, i): 0}) for i in range(n)]
    return gens


# Boolean images (finite entry -> 1, -inf -> 0) of the m2 letters
# A = [[-inf,-1],[0,-inf]], B = diag(1,0), C = diag(-inf,0), D = [[0,0],[0,-inf]].
M2_BOOLEAN_GENS = [((0, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 1)), ((1, 1), (1, 0))]

# Boolean images of the m3 letters A, B, E(1,2,0), Ai(1,-inf) and X(0).
M3_BOOLEAN_GENS = [
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
]

X_BOOLEAN = M3_BOOLEAN_GENS[4]

# Exact orders: 2^(n(n+1)/2) for UT_n(B), 2^(n^2) for M_n(B).  J-class
# counts are pinned from the seed commit (invariant under generator order).
BOOLEAN_MONOIDS = {
    "ut2": (lambda: ut_boolean_gens(2), 2 ** 3, 6),
    "ut3": (lambda: ut_boolean_gens(3), 2 ** 6, 33),
    "ut4": (lambda: ut_boolean_gens(4), 2 ** 10, 384),
    "m2": (lambda: list(M2_BOOLEAN_GENS), 2 ** 4, 4),
    "m3": (lambda: list(M3_BOOLEAN_GENS), 2 ** 9, 11),
}


def boolean_finite_rounds(seed, smoke=False):
    """Per round: closure plus J-classes of UT_2(B), UT_3(B), UT_4(B),
    M_2(B) and M_3(B) in seeded order, each with its generators in
    seeded order; then, in seeded order, the prime certificate of a
    seeded row/column permutation of the X image in M_3(B) (a unit
    multiple of a prime is prime), rank_search k=2 and k=3 on M_2(B),
    and irredundant on the M_3(B) generators.  Nine tasks, an odd
    count, so the median task is one task kind and not a boundary."""
    rng = random.Random(seed)
    names = list(BOOLEAN_MONOIDS)
    while True:
        rng.shuffle(names)
        out = []
        for name in names:
            gens = BOOLEAN_MONOIDS[name][0]()
            rng.shuffle(gens)
            out.append(("closure", name, gens))
        rows = list(range(3))
        cols = list(range(3))
        rng.shuffle(rows)
        rng.shuffle(cols)
        target = tuple(tuple(X_BOOLEAN[r][c] for c in cols) for r in rows)
        rest = [("prime", "m3", target), ("rank", "m2", 2), ("rank", "m2", 3), ("irredundant", "m3", None)]
        rng.shuffle(rest)
        yield out + rest


BOOLEAN_COLD = ("closure", "m2", list(M2_BOOLEAN_GENS))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("m3_grid", "library", m3_grid_rounds, 0.99, 3, 3, 6, M3_COLD),
        Workload("families_wide", "library", families_wide_rounds, 0.95, 17, 10, 12, FAMILIES_COLD),
        Workload("cli_batch", "cli", cli_batch_rounds, 0.75, 14, 2, 12, CLI_COLD),
        Workload("boolean_finite", "finite", boolean_finite_rounds, 0.75, 5, 1, 2, BOOLEAN_COLD),
    )
}
