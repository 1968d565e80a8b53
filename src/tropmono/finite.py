"""Finite monoid computations: closures, J-classes, generating rank,
and prime certificates.

These run over matrices of either semiring, but every interesting finite
case here is Boolean (tropical closures are infinite and stop at the
element cap, a supported, flagged outcome rather than an error; such a
monoid carries no Cayley graphs).
Matrices are met only at the boundary.  Closure keys, stores and
multiplies each element as a code: over B one packed int of n^2 bits,
whose n-bit rows are looked up in g's table of all 2^n rows to give
e * g; over zmax the row tuples themselves (see _codec).
FiniteMonoid.elements builds the Matrix list from the codes on first
read, and every query here works on element indices alone.

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

Units, primes and required orbits are read off Cayley edges.  In a
finite monoid a b is a unit only if a and b are, so the units U are
generated by the generators whose powers reach 1.  For a non-unit x:

- x = a b with a, b non-units iff an edge y -g-> z has y and g non-units
  and z in x U: cut b's word after its last non-unit letter g, leaving a
  unit v, so z = x v^-1 and y is a times a prefix; conversely
  x = y (g v) when z v = x.
- If the orbit O = U x U holds no generator, x = a b with a, b outside O
  iff an edge y -g-> z has z in O and y, g outside O: the walk from a
  along b's word enters O by such an edge; conversely x = (u y)(g v)
  when u z v = x, both factors outside O as O is closed under units.

A prime is a non-unit that no two non-units multiply to.  An orbit that
does not split is required, met by every generating set; _rank builds
the rank from these.  Orbits holding a generator fall back to _splits,
which scans the product rows of x's left divisors, walked back over
predecessor lists built once per monoid.
"""

import itertools
from functools import cache

from .matrix import Matrix, _bool_rows, _mk, _row_product, format_matrix, identity
from .semiring import BOTTOM, ZMAX

DEFAULT_CAP = 10 ** 6
RANK_WORK = 2 * 10 ** 6  # generation tests times elements, per rank search


class FiniteMonoid:
    """A closure result: the elements' codes (index 0 is the identity),
    the indices of the generators among them, the right Cayley action
    cayley[e][g] = index of element e * generator g, and the left one,
    left[e][g] = index of generator g * element e.  elements is the
    Matrix list, built from the codes on first read.

    For e > 0, element e = element parent[e] * generator last[e] is the
    edge by which closure first reached e, so parent[e] < e.

    closed is False when the cap cut the walk short; such a monoid keeps
    its elements and spanning tree, but cayley and left are None (which
    is what closed reads), and every query below refuses it.
    """

    __slots__ = ("n", "semiring", "codes", "gens", "cayley", "left", "parent", "last", "_index",
                 "_codec", "_elements", "_preds", "_units", "_rank")

    def __init__(self, n, semiring, codes, gens, cayley, left, parent, last, index, codec):
        self.n = n
        self.semiring = semiring
        self.codes = codes
        self.gens = gens
        self.cayley = cayley
        self.left = left
        self.parent = parent
        self.last = last
        self._index = index
        self._codec = codec  # (encode, decode, times), see _codec
        self._elements = None  # the Matrix list, built by elements
        self._preds = None  # right Cayley predecessor lists, built by _predecessors
        self._units = None  # (unit flags, unit generator columns), built by _units
        self._rank = None  # (rank, least generating tuple), built by _rank

    @property
    def closed(self) -> bool:
        return self.cayley is not None

    @property
    def elements(self) -> list:
        if self._elements is None:
            decode = self._codec[1]
            self._elements = [_mk(self.n, self.semiring, decode(c)) for c in self.codes]
        return self._elements

    def __len__(self):
        return len(self.codes)

    def index_of(self, m: Matrix):
        if m.semiring is not self.semiring or m.n != self.n:
            return None
        return self._index.get(self._codec[0](m.rows))

    def __contains__(self, m: Matrix):
        return self.index_of(m) is not None


@cache
def _codec(n: int, semiring):
    """(encode, decode, times) for closure's element codes of n x n
    matrices over semiring: encode and decode map row tuples to codes and
    back, and times(g) is a -> a * g on codes for one row tuple g.

    Over zmax a code is the row tuple itself.  Over B it is a packed int
    of n^2 bits, row 1 in the top n bits and each row as its mask.  Row i
    of a * g depends on row i of a alone, so times(g) looks each n-bit
    row up in a table of all 2^n rows, filled by mask from the last
    column up: a row whose top bit is j is a lower row plus column n - j,
    so its product ors in the mask of g's row n - j.
    """
    if semiring.name == "zmax":
        mul = _row_product(n, semiring)
        return tuple, tuple, lambda g: lambda a: mul(a, g)
    rows, mask = _bool_rows(n)
    shifts, full = range(n * n - n, -1, -n), (1 << n) - 1

    def encode(a):
        code = 0
        for r in a:
            code = code << n | mask[r]
        return code

    def times(g):
        products = [0]
        for r in reversed(g):
            products += [p | mask[r] for p in products]

        def times_g(code):
            out = 0
            for s in shifts:
                out = out << n | products[code >> s & full]
            return out

        return times_g

    return encode, lambda code: tuple([rows[code >> s & full] for s in shifts]), times


def closure(gens, cap: int = DEFAULT_CAP) -> FiniteMonoid:
    """Multiply out the monoid generated by gens (plus the identity).

    Breadth-first on right multiplication by the generators, one word
    length at a time (Froidure & Pin, 1997).  Element e's tree word is a
    first letter a followed by the tree word of its suffix s, so e * g =
    a * (s * g).  Unless the tree edge (s, g) reaches s * g, that product
    has a smaller tree word and a * (s * g) is read off the graph; only
    the other products are multiplied out.  The left graph of each
    length is filled from the right graph.  Elements are keyed, stored
    and multiplied as codes, packed ints over B and row tuples over zmax
    (see _codec); no Matrix is built here.

    Returns at the first new product that would pass cap, flagged not
    closed, with its elements and spanning tree but no Cayley graphs.  A
    cap below the identity plus the distinct generators raises
    ValueError.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("closure needs at least one matrix to fix n; pass [identity(n, sr)]")
    n, semiring = gens[0].n, gens[0].semiring
    if any(g.n != n or g.semiring is not semiring for g in gens):
        raise ValueError("generators disagree on dimension or semiring")
    codec = _codec(n, semiring)
    encode, _, times = codec
    codes = [encode(identity(n, semiring).rows)]
    index = {codes[0]: 0}
    parent, last = [-1], [-1]
    gen_idx = []
    for gi, g in enumerate(gens):
        c = encode(g.rows)
        if c not in index:
            index[c] = len(codes)
            codes.append(c)
            parent.append(0)
            last.append(gi)
        gen_idx.append(index[c])
    if cap < len(codes):
        raise ValueError(f"cap {cap} is below the {len(codes)} elements it starts from "
                         "(the identity and the distinct generators)")
    right = [times(g.rows) for g in gens]
    first, suffix = last[:], [0] * len(codes)
    cayley, left = [list(gen_idx)], [list(gen_idx)]
    lo = 1
    # Elements are explored in index order, which is shortlex order of
    # their tree words, so every edge read off below is already known.
    while lo < len(codes):
        hi = len(codes)
        for e in range(lo, hi):
            a, s = first[e], suffix[e]
            row = []
            cayley.append(row)
            for gi, r in enumerate(cayley[s]):
                # s * g is no tree word: e * g = a * r = (a * parent[r]) * last[r]
                if r < lo:  # every element below lo has its left row
                    i = left[r][a]
                elif parent[r] != s or last[r] != gi:
                    i = cayley[left[parent[r]][a]][last[r]]
                else:
                    p = right[gi](codes[e])
                    i = index.get(p)
                    if i is None:
                        if len(codes) == cap:
                            return FiniteMonoid(n, semiring, codes, gen_idx, None, None, parent, last, index, codec)
                        i = len(codes)
                        index[p] = i
                        codes.append(p)
                        parent.append(e)
                        last.append(gi)
                        first.append(a)
                        suffix.append(r)
                row.append(i)
        # g * e = (g * parent[e]) * last[e]
        for e in range(lo, hi):
            step = last[e]
            left.append([cayley[i][step] for i in left[parent[e]]])
        lo = hi
    return FiniteMonoid(n, semiring, codes, gen_idx, cayley, left, parent, last, index, codec)


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

def jclasses(fm: FiniteMonoid) -> list:
    """J-classes of a closed monoid, each a sorted list of element
    indices, ordered by least member: x and y share a class exactly when
    each lies in the other's two-sided ideal.

    The ideal of x is what x reaches in the two-sided Cayley graph, the
    right and left graphs closure stored (left and right steps commute,
    so walks reach exactly S^1 x S^1), so the classes are its strongly
    connected components, found by an iterative Tarjan from the
    identity, which reaches every element by right steps.  A vertex's
    right and left rows are joined only while it is on the DFS stack.
    """
    if not fm.closed:
        raise ValueError("jclasses needs a closed monoid (closure hit its cap)")
    right, left = fm.cayley, fm.left
    order, low, done = [-1] * len(right), [0] * len(right), [False] * len(right)
    order[0] = low[0] = 0
    count, stack, out = 1, [0], []
    work = [(0, iter(right[0] + left[0]))]
    while work:
        v, edges = work[-1]
        for w in edges:
            if order[w] < 0:
                order[w] = low[w] = count
                count += 1
                stack.append(w)
                work.append((w, iter(right[w] + left[w])))
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
                out.append(sorted(comp))
    return sorted(out)


# -- generation, units, rank and primes ----------------------------------------

def _reach(x: int, cols, *graphs) -> list:
    """x and all it reaches by steps graph[e][g], g in cols, breadth first."""
    seen, todo = {x}, [x]
    for e in todo:
        for graph in graphs:
            row = graph[e]
            for g in cols:
                p = row[g]
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
    return todo


def _generated(fm: FiniteMonoid, words, within=None) -> set:
    """The identity and the products of the elements the words spell,
    breadth first over the elements of within only (default all)."""
    cayley, seen, todo = fm.cayley, {0}, [0]
    for e in todo:
        for word in words:
            p = e
            for g in word:
                p = cayley[p][g]
            if p not in seen and (within is None or p in within):
                seen.add(p)
                todo.append(p)
    return seen


def is_generating(fm: FiniteMonoid, subset) -> bool:
    """Does the subset (of element indices) generate the whole monoid?"""
    if not fm.closed:
        raise ValueError("is_generating needs a closed monoid")
    return len(_generated(fm, [_word(fm, f) for f in set(subset)])) == len(fm)


def irredundant(fm: FiniteMonoid, subset) -> list:
    """For each member of the subset, True when dropping it breaks
    generation (the member is necessary); all True for a subset that
    does not generate, False for the identity and a repeated member.

    A generating subset (one holding the generators, or else checked
    once) generates without x iff the rest generates x, which a search
    over the left divisors of x decides, as they hold every prefix.
    """
    if not fm.closed:
        raise ValueError("irredundant needs a closed monoid")
    subset = list(subset)
    if not set(fm.gens) <= set(subset) and not is_generating(fm, subset):
        return [True] * len(subset)
    words = [_word(fm, f) for f in subset]
    return [x not in _generated(fm, words[:i] + words[i + 1 :], _left_divisors(fm, x)) for i, x in enumerate(subset)]


def _predecessors(fm: FiniteMonoid) -> list:
    """preds[v]: the u of each right edge u -> v, kept on the monoid."""
    if fm._preds is None:
        preds = fm._preds = [[] for _ in fm.cayley]
        for u, row in enumerate(fm.cayley):
            for v in row:
                preds[v].append(u)
    return fm._preds


def _left_divisors(fm: FiniteMonoid, x: int) -> set:
    """The a with x in a S^1 (closed fm), walked back over predecessors."""
    preds, divisors, todo = _predecessors(fm), {x}, [x]
    while todo:
        for u in preds[todo.pop()]:
            if u not in divisors:
                divisors.add(u)
                todo.append(u)
    return divisors


def _units(fm: FiniteMonoid):
    """(flags, unit_gens), kept on the monoid: the generator columns
    whose powers return to the identity, and per element whether it is
    a unit; a b is a unit only if a and b are, so they generate U."""
    if fm._units is None:
        unit_gens = [g for g, e in enumerate(fm.gens) if 0 in _reach(e, [g], fm.cayley)]
        units = set(_reach(0, unit_gens, fm.cayley))
        fm._units = [e in units for e in range(len(fm.cayley))], unit_gens
    return fm._units


def _splits(fm: FiniteMonoid, x: int, outside) -> bool:
    """Is x = a * b for some a and b that both have outside[.] set?  Only
    the left divisors a of x need their row of products."""
    for a in _left_divisors(fm, x):
        if outside[a]:
            row = _products(fm, a)
            if x in row and any(p == x and outside[b] for b, p in enumerate(row)):
                return True
    return False


def _orbits(fm: FiniteMonoid):
    """(orbits, required): the unit orbits U x U of a closed monoid's
    non-units as member lists, least member first, in order of it, and
    whether each is required.  U x U is what x reaches by unit generator
    steps, right and left; one pass over the right edges marks the
    orbits that split by the edge lemma, and an unmarked orbit holding a
    generator falls back to _splits.  A generating set missing a
    required orbit O would spell its x from elements outside O, and the
    first prefix landing in O, a b, would split it: x = (u a)(b v)."""
    units, unit_gens = _units(fm)
    orbit_of, orbits = [-1] * len(units), []
    for x in range(len(units)):
        if not units[x] and orbit_of[x] < 0:
            orbits.append(_reach(x, unit_gens, fm.cayley, fm.left))
            for e in orbits[-1]:
                orbit_of[e] = len(orbits) - 1
    gen_orbits, entered = [orbit_of[e] for e in fm.gens], [False] * len(orbits)
    for y, row in enumerate(fm.cayley):
        for og, z in zip(gen_orbits, row):
            if orbit_of[z] not in (orbit_of[y], og, -1):
                entered[orbit_of[z]] = True
    return orbits, [not entered[o] and (o not in gen_orbits or not _splits(fm, members[0], [i != o for i in orbit_of]))
                    for o, members in enumerate(orbits)]


def _first(fm: FiniteMonoid, items, sizes, words, whole, above=""):
    """The first tuple of items, by size in sizes and then in order, that
    with words generates whole elements, or None; ValueError once its
    generation tests times the elements pass RANK_WORK."""
    for tests, c in enumerate(s for r in sizes for s in itertools.combinations(items, r)):
        if tests * len(fm) > RANK_WORK:
            raise ValueError(f"rank search gave up after {tests} generation tests on {len(fm)} elements{above}")
        if len(_generated(fm, words + [_word(fm, x) for x in c])) == whole:
            return c


def _rank(fm: FiniteMonoid):
    """(rank, least generating index tuple of that size) of a closed
    monoid, kept on the monoid.

    In a finite monoid a b in U implies a, b in U, so G generates M iff
    G & U generates U and U | (G - U) generates M.  With U generated, one
    member of an orbit U x U gives all of it, so G - U needs one member
    of each required orbit and of the fewest j further orbits, none
    inside what U and the required orbits generate, that complete them:
    rank(M) = rank(U) + required + j, the relative rank of Howie &
    Ribeiro, "Rank properties in finite semigroups" (1999).  Of two sets
    of one size the least sorted one holds the least element of their
    difference, so as the parts come from disjoint sets at fixed sizes,
    the least union is the least unit r-tuple and the least members of
    the required and the j orbits, tried in order of least member.
    """
    if fm._rank is None:
        units, unit_gens = _units(fm)
        orbits, required = _orbits(fm)
        group = [u for u in range(1, len(units)) if units[u]]
        least = _first(fm, group, range(len(group) + 1), [], len(group) + 1)
        reps = tuple(members[0] for members, req in zip(orbits, required) if req)
        words = [[g] for g in unit_gens] + [_word(fm, x) for x in reps]
        base = _generated(fm, words)
        others = [members[0] for members in orbits if members[0] not in base]
        extra = _first(fm, others, range(1, len(others) + 1), words, len(fm)) or ()
        fm._rank = len(least) + len(reps) + len(extra), sorted(least + reps + extra)
    return fm._rank


def rank_search(fm: FiniteMonoid, k: int):
    """The least sorted index k-tuple, as a list, that generates a closed
    monoid, or None: at once below the rank, and _rank's tuple at it.
    Above it the index k-subsets are tested in order.  Either search
    stops with ValueError once its tests times elements pass RANK_WORK."""
    if not fm.closed:
        raise ValueError("rank_search needs a closed monoid")
    rank, least = _rank(fm)
    if k <= rank:
        return list(least) if k == rank else None
    found = _first(fm, range(len(fm)), (k,), [], len(fm), f" above the rank {rank}")
    return None if found is None else list(found)


def prime_certificate(x: Matrix, fm: FiniteMonoid) -> bool:
    """Certify that x is prime in fm: every two-factor product equal to
    x has exactly one unit factor, so x is no product of two non-units
    (two units multiply to a unit).

    That is, no edge y -g-> z has y and g non-units and z in x U: cut
    b's word in x = a b after its last non-unit letter g, leaving a unit
    v, so z = x v^-1 and y is a times a prefix; conversely x = y (g v)
    when z v = x.  Only the predecessors of x U are read.

    Units are excluded from being prime by convention (a unit splits as
    unit times unit), so passing one raises ValueError.
    """
    if not fm.closed:
        raise ValueError("prime_certificate needs a closed monoid")
    xi = fm.index_of(x)
    if xi is None:
        raise ValueError(f"matrix not in the monoid: {format_matrix(x)}")
    units, unit_gens = _units(fm)
    if units[xi]:
        raise ValueError("units are excluded from primality")
    cayley, preds = fm.cayley, _predecessors(fm)
    other_gens = [g for g in range(len(fm.gens)) if g not in unit_gens]
    return not any(not units[y] and any(cayley[y][g] == z for g in other_gens)
                   for z in _reach(xi, unit_gens, cayley) for y in preds[z])


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
