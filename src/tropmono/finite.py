"""Finite monoid computations: closures, J-classes, generating rank,
and prime certificates.

These run over matrices of either semiring, but every interesting finite
case here is Boolean (tropical closures are infinite and stop at the
element cap, a supported, flagged outcome rather than an error).
Matrices are met only at the boundary: closure multiplies row tuples
(over B row i of e * g is looked up in g's row table, filled on first
sight), keys elements by them and wraps a Matrix only around a new
element, and from then on an element is its index.

Closure is the Froidure-Pin enumeration (Froidure & Pin, 1997): a
breadth-first walk that records, for every element but the identity,
the (parent, generator) edge by which it was first reached.  Tree words
are shortlex least, so e * g = first(e) * (suffix(e) * g) is read off
the graph whenever suffix(e) * g is not itself a tree word, and only
the remaining products are multiplied out; the left Cayley graph is
filled from the right one, one word length at a time.  After closure
the spanning tree turns any product into a walk in the Cayley graph:
u * v follows v's tree word from u, and a whole row u * S fills in
breadth-first order.  J-classes are the strongly connected components
of the two-sided Cayley graph, found by an iterative Tarjan.

Primality and rank share one split test: is x a product a * b of two
elements outside a given set?  It scans the rows of x's left divisors
only, walked back over predecessor lists built once per monoid; the
units are the left divisors of the identity.  A prime is a non-unit that
no two non-units multiply to; a unit orbit U x U that no two elements
outside it multiply into is required, met by every generating set, and
rank_search prunes by these orbits, read off rows of products.
"""

from __future__ import annotations

import itertools
from collections import deque

from .matrix import Matrix, _mk, _right_product, _row_product, format_matrix, identity
from .semiring import BOTTOM, ZMAX

DEFAULT_CAP = 10 ** 6


class FiniteMonoid:
    """A closure result: elements (index 0 is the identity), the indices
    of the generators inside the element list, the right Cayley action
    cayley[e][g] = index of elements[e] * generator g, and the left one,
    left[e][g] = index of generator g * elements[e].

    For e > 0, elements[e] = elements[parent[e]] * generator last[e] is
    the edge by which closure first reached e, so parent[e] < e.

    closed is False when the cap cut the walk short; the products that
    would have passed the cap are -1 in cayley and left.
    """

    __slots__ = ("n", "semiring", "elements", "gens", "cayley", "left", "parent", "last", "closed", "_index", "_preds")

    def __init__(self, n, semiring, elements, gens, cayley, left, parent, last, closed, index):
        self.n = n
        self.semiring = semiring
        self.elements = elements
        self.gens = gens
        self.cayley = cayley
        self.left = left
        self.parent = parent
        self.last = last
        self.closed = closed
        self._index = index
        self._preds = None  # right Cayley predecessor lists, built by _left_divisors

    def __len__(self):
        return len(self.elements)

    def index_of(self, m: Matrix):
        return self._index.get(m.rows) if m.semiring is self.semiring else None

    def __contains__(self, m: Matrix):
        return self.index_of(m) is not None


def closure(gens, cap: int = DEFAULT_CAP) -> FiniteMonoid:
    """Multiply out the monoid generated by gens (plus the identity).

    Breadth-first on right multiplication by the generators, one word
    length at a time (Froidure & Pin, 1997).  Element e's tree word is a
    first letter a followed by the tree word of its suffix s, so e * g =
    a * (s * g).  Unless the tree edge (s, g) reaches s * g, that product
    has a smaller tree word and a * (s * g) is read off the graph; only
    the other products are multiplied out.  The left graph of each
    length is filled from the right graph.  Products are taken on row
    tuples: e * g by g's row function (over B a table from each row of e
    to its row of e * g), g * e by the row product; a Matrix is built
    only for an element seen for the first time.

    Stops when the element count would pass cap and flags the result not
    closed; from then on a lookup that meets a -1 edge multiplies.  A cap
    below the identity plus the distinct generators raises ValueError.
    """
    gens = list(gens)
    if gens:
        n, semiring = gens[0].n, gens[0].semiring
        for g in gens:
            if g.n != n or g.semiring is not semiring:
                raise ValueError("generators disagree on dimension or semiring")
    else:
        raise ValueError("closure needs at least one matrix to fix n; pass [identity(n, sr)]")
    mul = _row_product(n, semiring)
    elements = [identity(n, semiring)]
    index = {elements[0].rows: 0}
    parent, last = [-1], [-1]
    gen_idx = []
    for gi, g in enumerate(gens):
        if g.rows not in index:
            index[g.rows] = len(elements)
            elements.append(g)
            parent.append(0)
            last.append(gi)
        gen_idx.append(index[g.rows])
    if cap < len(elements):
        raise ValueError(f"cap {cap} is below the {len(elements)} elements it starts from "
                         "(the identity and the distinct generators)")
    grows = [g.rows for g in gens]
    right = [_right_product(n, semiring, g) for g in grows]
    first, suffix = last[:], [0] * len(elements)
    cayley, left = [list(gen_idx)], [list(gen_idx)]
    closed = True
    lo = 1
    # Elements are explored in index order, which is shortlex order of
    # their tree words, so every edge read off below is already known.
    while lo < len(elements):
        hi = len(elements)
        for e in range(lo, hi):
            a, s = first[e], suffix[e]
            row = []
            cayley.append(row)
            for gi, r in enumerate(cayley[s]):
                i = -1
                # s * g is no tree word: e * g = a * r = (a * parent[r]) * last[r]
                if r == 0:
                    i = gen_idx[a]
                elif r > 0 and (parent[r] != s or last[r] != gi):
                    i = left[parent[r]][a]
                    i = cayley[i][last[r]] if i >= 0 else -1
                if i < 0:
                    p = right[gi](elements[e].rows)
                    i = index.get(p, -1)
                    if i < 0 and len(elements) >= cap:
                        closed = False
                    elif i < 0:
                        i = len(elements)
                        index[p] = i
                        elements.append(_mk(n, semiring, p))
                        parent.append(e)
                        last.append(gi)
                        first.append(a)
                        suffix.append(r)
                row.append(i)
        # g * e = (g * parent[e]) * last[e], multiplied out only where g *
        # parent[e] passed the cap (a -1 right edge stays -1: no element
        # joins after the cap is met)
        for e in range(lo, hi):
            rows, step = elements[e].rows, last[e]
            left.append([
                cayley[i][step] if i >= 0 else index.get(mul(g, rows), -1) for i, g in zip(left[parent[e]], grows)
            ])
        lo = hi
    return FiniteMonoid(n, semiring, elements, gen_idx, cayley, left, parent, last, closed, index)


def infinite_witness(gens):
    """The first zmax generator whose maximum cycle mean is finite and
    nonzero, as (its index, the mean), or None.

    The mean is the largest (g^k)_ii / k over k <= n (Karp, 1978).  If it
    is positive, the diagonal of g^(ml) grows without bound along a best
    cycle of length l; if negative, the finite entries of g^k fall below
    any bound while that diagonal stays finite.  Either way g has
    infinitely many powers, so no two are equal and the monoid is
    infinite.  None proves nothing: the test is sufficient only.
    """
    from fractions import Fraction  # here: importing it costs a few ms

    for gi, g in enumerate(gens):
        if g.semiring is not ZMAX:
            return None
        mul, p, means = _row_product(g.n, ZMAX), g.rows, []
        for k in range(1, g.n + 1):
            means += [Fraction(p[i][i], k) for i in range(g.n) if p[i][i] != BOTTOM]
            p = mul(p, g.rows)
        if means and max(means):
            return gi, max(means)
    return None


# -- products as Cayley walks ------------------------------------------------

def _products(fm: FiniteMonoid, u: int) -> list:
    """The row u * v over every element v of a closed monoid: v's parent
    comes first, so row[v] is one Cayley step from row[parent[v]]."""
    cayley, parent, last = fm.cayley, fm.parent, fm.last
    row = [u]
    for v in range(1, len(cayley)):
        row.append(cayley[row[parent[v]]][last[v]])
    return row


def _word(fm: FiniteMonoid, f: int) -> list:
    """The generator columns spelling f along the spanning tree."""
    word = []
    while f:
        word.append(fm.last[f])
        f = fm.parent[f]
    word.reverse()
    return word


# -- J-classes -------------------------------------------------------------

def _sccs(succ) -> list:
    """Strongly connected components of the graph v -> succ[v], all of
    whose vertices vertex 0 reaches, sinks first (Tarjan, with an
    explicit stack of vertices and edge iterators)."""
    order = [-1] * len(succ)
    low = [0] * len(succ)
    done = [False] * len(succ)
    order[0] = low[0] = 0
    count = 1
    stack, out = [0], []
    work = [(0, iter(succ[0]))]
    while work:
        v, edges = work[-1]
        for w in edges:
            if order[w] < 0:
                order[w] = low[w] = count
                count += 1
                stack.append(w)
                work.append((w, iter(succ[w])))
                break
            if not done[w] and order[w] < low[v]:
                low[v] = order[w]
        else:
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == order[v]:
                comp = []
                while not comp or comp[-1] != v:
                    comp.append(stack.pop())
                    done[comp[-1]] = True
                out.append(comp)
    return out


def jclasses(fm: FiniteMonoid) -> list:
    """J-classes of a closed monoid, each a sorted list of element
    indices, ordered by least member: x and y share a class exactly when
    each lies in the other's two-sided ideal.

    The ideal of x is what x reaches in the two-sided Cayley graph, the
    right and left graphs closure stored (left and right steps commute,
    so walks reach exactly S^1 x S^1), so the classes are its strongly
    connected components.  The identity reaches every element by right
    steps.
    """
    if not fm.closed:
        raise ValueError("jclasses needs a closed monoid (closure hit its cap)")
    succ = [row + left for row, left in zip(fm.cayley, fm.left)]
    return sorted(sorted(members) for members in _sccs(succ))


# -- generation and rank -----------------------------------------------------

def _generated_indices(fm: FiniteMonoid, subset) -> set:
    """Indices of the submonoid generated by the subset (identity included)."""
    cayley = fm.cayley
    words = [_word(fm, f) for f in subset]
    seen = {0} | set(subset)
    queue = deque(seen)
    while queue:
        e = queue.popleft()
        for word in words:
            p = e
            for g in word:
                p = cayley[p][g]
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def is_generating(fm: FiniteMonoid, subset) -> bool:
    """Does the subset (of element indices) generate the whole monoid?"""
    if not fm.closed:
        raise ValueError("is_generating needs a closed monoid")
    return len(_generated_indices(fm, sorted(set(subset)))) == len(fm.elements)


def irredundant(fm: FiniteMonoid, subset) -> list:
    """For each member of the subset, True when dropping it breaks
    generation (the member is necessary)."""
    subset = list(subset)
    return [not is_generating(fm, subset[:i] + subset[i + 1 :]) for i in range(len(subset))]


def _left_divisors(fm: FiniteMonoid, x: int) -> set:
    """The a with x in a S^1 (closed fm): one walk back from x over the right
    Cayley predecessor lists, built on first use and kept on the monoid."""
    preds = fm._preds
    if preds is None:
        preds = fm._preds = [[] for _ in fm.cayley]
        for u, row in enumerate(fm.cayley):
            for v in row:
                preds[v].append(u)
    divisors, todo = {x}, [x]
    while todo:
        for u in preds[todo.pop()]:
            if u not in divisors:
                divisors.add(u)
                todo.append(u)
    return divisors


def _unit_flags(fm: FiniteMonoid):
    # in a finite monoid u v = 1 forces v u = 1: units are left divisors of 1
    units = _left_divisors(fm, 0)
    return [e in units for e in range(len(fm.elements))]


def _splits(fm: FiniteMonoid, x: int, outside) -> bool:
    """Is x = a * b for some a and b that both have outside[.] set?

    A factor a has x in a S^1, so only the left divisors of x need their
    row of products.
    """
    for a in _left_divisors(fm, x):
        if outside[a]:
            row = _products(fm, a)
            if x in row and any(p == x and outside[b] for b, p in enumerate(row)):
                return True
    return False


def rank_search(fm: FiniteMonoid, k: int):
    """Exhaustive search for a generating subset of size k, smallest
    index tuples first; None when no size-k subset generates.

    Candidates must meet every required orbit.  The orbit O = U x U of a
    non-unit x under the units U is required when x is no product of two
    elements outside O.  A generating set G that missed O would write x
    as a product of elements outside O; the first prefix of it landing
    in O is y = a * b with a and b outside O, and x = (u a)(b v) for
    units u and v with u y v = x, where u a and b v stay outside O since
    O is closed under unit multiples.  So G meets O.  The orbits are
    disjoint, so more than k of them answer None at once.
    """
    if not fm.closed:
        raise ValueError("rank_search needs a closed monoid")
    if len(fm.elements) > 64:
        raise ValueError(f"rank_search supports at most 64 elements, got {len(fm.elements)}")
    if not 0 <= k <= 4:
        raise ValueError(f"rank_search supports 0 <= k <= 4, got k = {k}")
    size = len(fm.elements)
    units = _unit_flags(fm)
    unit_ids = [u for u in range(size) if units[u]]
    unit_rows = [_products(fm, u) for u in unit_ids]
    orbits, seen = [], set()
    for x in range(size):
        if units[x] or x in seen:
            continue
        x_row = _products(fm, x)
        orbit = {row[x_row[v]] for row in unit_rows for v in unit_ids}
        seen |= orbit
        if not _splits(fm, x, [e not in orbit for e in range(size)]):
            orbits.append(orbit)
    if len(orbits) > k:
        return None
    for subset in itertools.combinations(range(size), k):
        if all(not orbit.isdisjoint(subset) for orbit in orbits) and len(_generated_indices(fm, subset)) == size:
            return list(subset)
    return None


def prime_certificate(x: Matrix, fm: FiniteMonoid) -> bool:
    """Certify that x is prime in fm: every two-factor product equal to
    x has exactly one unit factor, so x is no product of two non-units
    (two units multiply to a unit).

    Units are excluded from being prime by convention (a unit splits as
    unit times unit), so passing one raises ValueError.
    """
    if not fm.closed:
        raise ValueError("prime_certificate needs a closed monoid")
    xi = fm.index_of(x)
    if xi is None:
        raise ValueError(f"matrix not in the monoid: {format_matrix(x)}")
    units = _unit_flags(fm)
    if units[xi]:
        raise ValueError("units are excluded from primality")
    return not _splits(fm, xi, [not u for u in units])


def x_family_j_related(s: int, t: int) -> bool:
    """Are the 3x3 X matrices with corner parameters s and t in the
    same J-class of the tropical 3x3 monoid?

    Exactly when s = t or s = -t: conjugating X(s) by monomial matrices
    negates or keeps the corner parameter and nothing else reaches it,
    so each |s| pins its own class.  Any integers are accepted; the
    generator letters themselves only carry non-negative indices since
    X(-s) sits in the same class as X(s).
    """
    return s == t or s + t == 0
