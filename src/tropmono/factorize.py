"""Words over the generator alphabets, and the factorization algorithms
that rewrite a matrix as such a word.

A Word is internally a DAG rather than a flat letter list: a letter (a
Generator) is its own leaf, a run repeats each part of its body, a
shared node, k times in a row (every power, of a letter or a sub-word,
is a run over a one-part body), and every other node concatenates its
parts.  A node is kept only where it is shared or repeated: any other
sub-word is a flat part list spliced into its parent.  The group-case
words repeat large sub-words (powers of rotation words, conjugated
diagonal scalings) whose flattened length grows with the entries, while
the node count stays small.

Evaluation computes one value per node and keeps it on the node, per
evaluation context (an _Eval, one per monoid and n).  A value is a
monomial (a column image and a finite shift per row), an elementary
letter as the unit plus one finite entry, or dense rows.  Every unit
letter starts as a monomial, and most of every word is a product of
them.  Two monomials compose in O(n); any other two values are made
dense and take the dense product.  The monomials among a node's parts
are held back as one pending monomial, an image and a shift list that
the first copies and each next composes into in place, so a stretch of
unit letters costs no product.  A run whose parts are all diagonal
monomials (their image the shared identity tuple), such as a slot
scaling past |a| = 1 in any alphabet, joins the pending monomial as k
times each nonzero (slot, shift) pair of its body's product, one O(1)
update per pair for any k, and keeps no value as a part; a diagonal
run on its own is summed as a one-part concatenation.  The pairs are
kept on the body per evaluation context, so each body's letters are
checked and summed once.  Any other run multiplies its parts' k-th
powers, in O(log k) products.
For n >= 4 an elementary letter E(i,j,z) is the unit plus its entry.
Since
diag(d) E(r,c,x) = E(r,c,x + d[r] - d[c]) diag(d),
it moves its entry past a diagonal pending monomial, so the slot
scalings that conjugate each E letter of a ut word cancel without a
product; after dense rows it raises one column of the node's own row
lists in place, O(n), until the next product.  Any other value meets
the pending monomial with one row gather or column scatter, unrolled
at n = 3 like the dense product, and a pending unit is dropped.
Each leaf is checked against the word's alphabet when it is evaluated.
A Matrix is built only for the result.  The letter count and the text
form are each one bottom-up fold that visits every node once, a run
repeating each part's text k times; the distinct
letters are one walk over the unique nodes.  Flat letter sequences are
produced lazily.

The five factorizations:

* factor_ut: upper triangular tropical matrices, any 1 <= n <= 8.
* factor_unitriangular: unit diagonal, strictly upper entries.
* factor_gl: invertible (monomial, unit entries) matrices, n >= 2,
  over the two-letter alphabet.
* factor_m2: every 2x2 tropical matrix over the four-letter alphabet.
* factor_m3: every 3x3 tropical matrix over the m3 alphabet; a case
  dispatcher, looked up by the positions of the -inf entries, that
  recurses on strictly easier matrices, kept as plain row tuples.

Each alphabet spells its diagonal scalings in one slot table, read by
_slot; the triangular walk and the 2x2 words (over a letter set A, B,
C, D) take theirs, so factor_m3 reuses both, with m3 words.

The dispatcher's tie-breaking is fixed: its rules are tried in table
order, each takes the first hit among the permutation pairs (s, t) in
its scan order (s outer, t inner, both lexicographic over 0-based
image tuples, except that x scans t outer, split-row tries
s = (1,2,0) last and split-col tries t = (2,1,0) before (2,0,1)), and
every ordered comparison sends ties to the first-listed branch.  Words are not minimized.
"""

import itertools
from functools import cache
from operator import itemgetter

from .genset import (
    GL_A,
    GL_B,
    Generator,
    M2_A,
    M2_B,
    M2_C,
    M2_D,
    NEG_I,
    diag_letter,
    elem_letter,
    generating_set,
    parse_generator,
    x_letter,
)
from .matrix import (
    MAX_DIM,
    Matrix,
    _identity_rows,
    _mk,
    _row_product,
    format_matrix,
    is_monomial,
    is_unitriangular,
    is_upper_triangular,
)
from .semiring import BOTTOM, ZMAX, is_finite


class MembershipError(ValueError):
    """Input matrix (or word letter) is outside the monoid in question."""


# -- word nodes -----------------------------------------------------------

class _Node:
    """The concatenation of parts (_Nodes or Generators)."""

    __slots__ = ("parts", "_vals")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._vals = {}


def _cat(flat):
    # A flat part list as one word: a node, its one part, or None for nothing.
    if len(flat) > 1:
        return _Node(flat)
    return flat[0] if flat else None


class _Run(_Node):
    """Each of the parts of its body, a _Node that runs may share,
    repeated k times in a row: a letter power, the letters of a negative
    slot scaling, or a power of a sub-word.  parts is the body's parts.
    A body is never a part itself: its _vals keep _run_sum's pairs per
    evaluation context.  A diagonal run on its own is summed as a
    one-part concatenation."""

    __slots__ = ("body", "k")

    def __init__(self, body: _Node, k: int):
        self.body, self.parts, self.k = body, body.parts, k
        self._vals = {}


def _pow(node, k: int):
    """node repeated k times: a run over a one-part body, the node itself once."""
    return node if k == 1 else _Run(_Node((node,)), k)


_EMPTY = _Node(())


def _node_letters(node):
    if type(node) is Generator:
        yield node
    elif type(node) is _Run:
        for p in node.parts:
            if type(p) is Generator:
                yield from itertools.repeat(p, node.k)
            else:
                for _ in range(node.k):
                    yield from _node_letters(p)
    else:
        for p in node.parts:
            yield from _node_letters(p)


def _fold(node, leaf, inner, memo):
    """Fold a word DAG bottom-up, once per node: leaf(g) at a letter,
    inner(node, the values of its parts) at a _Node."""
    key = id(node)
    if key in memo:
        return memo[key]
    if type(node) is Generator:
        out = leaf(node)
    else:
        # A loop: on Python 3.11 a comprehension costs a call per node.
        vals = []
        for p in node.parts:
            vals.append(_fold(p, leaf, inner, memo))
        out = inner(node, vals)
    memo[key] = out
    return out


def _join_text(node, texts):
    # The parts' texts, skipping empty ones; a run's parts each k times
    # in a row.
    if type(node) is _Run:
        return " ".join([" ".join([t] * node.k) for t in texts if t]) if node.k else ""
    return " ".join([t for t in texts if t])


class Word:
    """A word over one monoid's alphabet.  Immutable once built."""

    __slots__ = ("monoid", "n", "root")

    def __init__(self, monoid: str, n: int, root=None):
        self.monoid = monoid
        self.n = n
        self.root = _EMPTY if root is None else root

    def letters(self):
        """Flat letter sequence, lazily.  Can be long; prefer letter_count
        or distinct_letters when the sequence itself is not needed."""
        return _node_letters(self.root)

    def letter_count(self) -> int:
        count = lambda node, lens: node.k * sum(lens) if type(node) is _Run else sum(lens)
        return _fold(self.root, lambda g: 1, count, {})

    def distinct_letters(self):
        # A walk over unique node ids; a fold would store a value per node.
        out, seen, stack = set(), set(), [self.root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if type(node) is Generator:
                    out.add(node)
                else:
                    stack.extend(node.parts)
        return out

    def text(self) -> str:
        return _fold(self.root, Generator.text, _join_text, {}) or "ε"

    def __repr__(self):
        k = self.letter_count()
        return f"Word({self.monoid}, n={self.n}, {k} letters)"


# -- evaluation -------------------------------------------------------------
#
# A node's value is a _Mono, a _Plus or dense rows (a tuple of row
# tuples), cached in node._vals (a leaf letter's own _vals) per
# evaluation context, the _Eval of the word's (monoid, n): a value
# cached for one alphabet says nothing about the node's letters in
# another.  A run body's _vals hold its run sum the same way.

# The identity image of each dimension: a _Mono with this very img is
# diagonal.
_IDENT = tuple(tuple(range(n)) for n in range(MAX_DIM + 1))


def _ident(img):
    """img, or the shared identity image if it equals it."""
    ident = _IDENT[len(img)]
    return ident if img == ident else img


def _inverse(img):
    """The inverse of the 0-based image tuple img."""
    inv = [0] * len(img)
    for i, j in enumerate(img):
        inv[j] = i
    return tuple(inv)


class _Mono:
    """A monomial zmax matrix: row i holds sh[i] in column img[i]
    (0-based), every other entry is -inf."""

    __slots__ = ("img", "sh")

    def __init__(self, img, sh):
        self.img = img
        self.sh = sh


class _Plus:
    """The unit plus the finite entry v at (r, c), r != c (0-based): an
    elementary letter from n = 4, moved by a diagonal pending monomial."""

    __slots__ = ("r", "c", "v")

    def __init__(self, r, c, v):
        self.r, self.c, self.v = r, c, v


def _rows(v, n: int):
    """Any n x n value as dense rows: a _Mono or _Plus is built out, and
    dense rows (tuples, or a node's own row lists) come back as they are."""
    if type(v) is _Mono:
        rows = [[BOTTOM] * n for _ in range(n)]
        for i, (j, s) in enumerate(zip(v.img, v.sh)):
            rows[i][j] = s
    elif type(v) is _Plus:
        rows = [[0 if i == j else BOTTOM for j in range(n)] for i in range(n)]
        rows[v.r][v.c] = v.v
    else:
        return v
    return tuple([tuple(r) for r in rows])


# A monomial (img, sh) times dense rows.  gather: row i is row img[i] of
# b plus sh[i]; scatter: column img[k] is column k of a plus sh[k].
def _gather(img, sh, b):
    return tuple([tuple([s + x for x in b[k]]) for k, s in zip(img, sh)])


def _scatter(img, sh, a):
    src = _inverse(img)
    return tuple([tuple([row[k] + sh[k] for k in src]) for row in a])


# The same, unrolled for 3x3 rows like matrix._mul3; _SRC3[img][j] is
# the column of a that lands in column j.  The identity image, about half
# of the scatters in m3 words, skips the lookup.
_IDENT3 = _IDENT[3]
_SRC3 = {img: _inverse(img) for img in itertools.permutations(range(3))}


def _gather3(img, sh, b):
    (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = b[img[0]], b[img[1]], b[img[2]]
    s, t, u = sh
    return ((x1 + s, x2 + s, x3 + s), (y1 + t, y2 + t, y3 + t), (z1 + u, z2 + u, z3 + u))


def _scatter3(img, sh, a):
    if img is _IDENT3:
        s, t, u = sh
        (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = a
        return ((x1 + s, x2 + t, x3 + u), (y1 + s, y2 + t, y3 + u), (z1 + s, z2 + t, z3 + u))
    i, j, k = _SRC3[img]
    s, t, u = sh[i], sh[j], sh[k]
    x, y, z = a
    return ((x[i] + s, x[j] + t, x[k] + u), (y[i] + s, y[j] + t, y[k] + u), (z[i] + s, z[j] + t, z[k] + u))


def _times(a, b, ev):
    """The product of two values, with ev's kernels: two monomials
    compose, any other pair is made dense and takes the dense product.
    A node's monomial parts compose, and meet dense rows and E letters,
    in _value's part loop."""
    if type(a) is _Mono and type(b) is _Mono:
        img, sh, bimg, bsh = a.img, a.sh, b.img, b.sh
        return _Mono(_ident(tuple([bimg[k] for k in img])), tuple([s + bsh[k] for k, s in zip(img, sh)]))
    return ev.mul(_rows(a, ev.n), _rows(b, ev.n))


def _power(v, k: int, ev):
    """v^k by squaring and multiplying with _times, in O(log k) products.
    A run whose parts are all diagonal is summed by _run_sum instead."""
    if k == 0:
        return ev.unit
    acc = None
    while k:
        if k & 1:
            acc = v if acc is None else _times(acc, v, ev)
        k >>= 1
        if k:
            v = _times(v, v, ev)
    return acc


class _Eval:
    """What evaluation needs at every node of a word with this monoid
    and n, all read off its alphabet: among it the dense product and the
    two monomial-times-dense kernels, gather and scatter, unrolled at
    n = 3."""

    __slots__ = ("alphabet", "n", "ident", "semiring", "mul", "gather", "scatter", "unit")

    def __init__(self, monoid: str, n: int):
        self.alphabet = generating_set(monoid, n)
        self.n = n
        self.ident = _IDENT[n]
        self.semiring = semiring = self.alphabet.semiring
        self.mul = _row_product(n, semiring)
        self.gather, self.scatter = (_gather3, _scatter3) if n == 3 else (_gather, _scatter)
        self.unit = _Mono(self.ident, (0,) * n) if semiring is ZMAX else _identity_rows(n, semiring)


# One _Eval per (monoid, n) seen: node values are kept per evaluation context.
_eval_context = cache(_Eval)


def _leaf_value(g: Generator, ev: _Eval):
    if not ev.alphabet.contains(g):
        raise MembershipError(f"letter {g.text()} outside the {ev.alphabet.monoid} alphabet")
    if g.kind == "ELEM_E" and ev.semiring is ZMAX:
        # Read off its entry; dense rows where the unrolled product is faster.
        i, j, v = g.params
        e = _Plus(i - 1, j - 1, v)
        return e if ev.n > 3 else _rows(e, ev.n)
    if g.kind == "M3_X":
        return ((BOTTOM, 0, g.params[0]), (0, BOTTOM, 0), (0, 0, BOTTOM))
    m = g.realize(ev.n, ev.semiring)
    if ev.semiring is ZMAX:
        mono = is_monomial(m)
        if mono is not None:
            img, vals = mono
            return _Mono(_ident(img), vals)
    return m.rows


def _run_sum(body: _Node, ev: _Eval):
    """The nonzero (slot, shift) pairs of the product of a run body's
    parts if all are diagonal (so they commute), else False, kept in the
    body's _vals per evaluation context so its letters are checked once;
    a diagonal run on its own is summed as a one-part concatenation."""
    pairs = body._vals.get(ev)
    if pairs is None:
        vals = [_value(p, ev) for p in body.parts]
        pairs = False
        if all(type(x) is _Mono and x.img is ev.ident for x in vals):
            pairs = [(c, s) for c, s in enumerate(map(sum, zip(*[x.sh for x in vals]))) if s]
        body._vals[ev] = pairs
    return pairs


def _then_pending(val, img, sh, v, ev: _Eval):
    """(val times the pending monomial, v), where row i of the monomial
    holds sh[i] in column img[i] (img None while diagonal): val made dense
    scatters, or v made dense gathers as a first value; a unit is dropped,
    and a _Mono is built only for a node of monomials alone."""
    img = ev.ident if img is None else _ident(tuple(img))
    if img is ev.ident and not any(sh):
        return val, v
    if val is not None:
        return ev.scatter(img, sh, _rows(val, ev.n)), v
    if v is None:
        return _Mono(img, tuple(sh)), v
    return None, ev.gather(img, sh, _rows(v, ev.n))


def _value(node, ev: _Eval):
    """The node's value, cached on the node per evaluation context ev: a
    leaf's from its letter, a run that is not diagonal as the product of
    its parts' k-th powers, any other node's as the product of its parts'
    values with their monomials held back as one pending monomial that E
    letters pass; a diagonal run on its own is summed as a one-part
    concatenation."""
    hit = node._vals.get(ev)
    if hit is not None:
        return hit
    if type(node) is Generator:
        val = _leaf_value(node, ev)
    elif type(node) is _Run and _run_sum(node.body, ev) is False:
        val = None
        for g in node.parts:
            v = _power(_value(g, ev), node.k, ev)
            val = v if val is None else _times(val, v, ev)
    else:
        # The monomial parts are held back as one pending monomial, the
        # lists img and sh (None while nothing is pending; img None while
        # diagonal): the first copies its image and shifts, and each next
        # composes into them in place.  Since diag(d) E(r,c,x) =
        # E(r,c,x + d[r] - d[c]) diag(d), an E letter's _Plus moves its
        # entry past a diagonal pending monomial; any other value, and the
        # end, multiply it in with one product (a pending unit is dropped).
        val = img = sh = None
        ident = ev.ident
        for p in (node,) if type(node) is _Run else node.parts:
            v = p._vals.get(ev)
            if v is None:
                if type(p) is _Run:
                    # A diagonal run joins the pending monomial by its
                    # body's pairs (read here first, so a warm run costs
                    # no call) and keeps no value of its own: the row
                    # that lands in column c adds k s per pair (c, s).
                    pairs = p.body._vals.get(ev)
                    if pairs is None:
                        pairs = _run_sum(p.body, ev)
                    if pairs is not False:
                        if sh is None:
                            sh = [0] * ev.n
                        k = p.k
                        for c, s in pairs:
                            sh[c if img is None else img.index(c)] += k * s
                        continue
                v = _value(p, ev)
            if type(v) is _Mono:
                # pending times v: row i moves to column v.img[img[i]], adds v.sh[img[i]].
                if sh is None:
                    img = None if v.img is ident else list(v.img)
                    sh = list(v.sh)
                elif img is None:
                    if v.img is not ident:
                        img = list(v.img)
                    for i, s in enumerate(v.sh):
                        if s:
                            sh[i] += s
                else:
                    vimg, vsh = v.img, v.sh
                    for i, j in enumerate(img):
                        img[i] = vimg[j]
                        sh[i] += vsh[j]
                continue
            if sh is not None:
                if type(v) is _Plus and img is None:
                    v = _Plus(v.r, v.c, v.v + sh[v.r] - sh[v.c])
                else:
                    val, v = _then_pending(val, img, sh, v, ev)
                    img = sh = None
            if val is None:
                val = v
            elif type(v) is _Plus:
                # Column c takes column r plus x, in the loop's own row lists.
                val = val if type(val) is list else [list(row) for row in _rows(val, ev.n)]
                r, c, x = v.r, v.c, v.v
                for row in val:
                    y = row[r] + x
                    if y > row[c]:
                        row[c] = y
            else:
                val = ev.mul(_rows(val, ev.n), v)
        if sh is not None:
            val = _then_pending(val, img, sh, None, ev)[0]
        if val is None:
            val = ev.unit
        elif type(val) is list:
            val = tuple(map(tuple, val))
    node._vals[ev] = val
    return val


def evaluate(w: Word) -> Matrix:
    """Multiply the word out.  The empty word is the identity.

    Every letter must belong to the word's monoid alphabet (including
    the symbolic E and X families, and letters under a zero power); a
    stray letter raises MembershipError.
    """
    ev = _eval_context(w.monoid, w.n)
    return _mk(w.n, ev.semiring, _rows(_value(w.root, ev), w.n))


def parse_word(text: str, monoid: str, n: int) -> Word:
    """Parse a space-separated letter sequence; 'ε' (or nothing) is empty.
    Scalars are read over the semiring of the monoid's alphabet."""
    semiring = generating_set(monoid, n).semiring
    toks = text.split()
    if toks == ["ε"]:
        toks = []
    leaves = [parse_generator(t, monoid, semiring) for t in toks]
    return Word(monoid, n, _Node(leaves))


# -- upper triangular / unitriangular -------------------------------------

# Shared ut letters, indexed by slot; their values are cached once per
# dimension.
_UT_UP = {i: diag_letter(i, 1) for i in range(1, MAX_DIM + 1)}
_UT_BOT = {i: diag_letter(i, BOTTOM) for i in range(1, MAX_DIM + 1)}
_UT_E = {
    (i, j): elem_letter(i, j, 0)
    for i in range(1, MAX_DIM + 1)
    for j in range(i + 1, MAX_DIM + 1)
}


def _slot(words, i: int, a):
    """The word for the diagonal with a in slot i, from the slot table
    words: words[i, BOTTOM] for -inf, else a run of |a| over the body
    words[i] (a > 0) or words[-i] (a < 0), the one part of a one-part
    body at |a| = 1; None for 0."""
    if a > 0:
        body = words[i]
    elif a == BOTTOM:
        return words[i, BOTTOM]
    elif a:
        body, a = words[-i], -a
    else:
        return None
    return body.parts[0] if a == 1 and len(body.parts) == 1 else _Run(body, a)


@cache
def _ut_slots(n: int) -> dict:
    """The ut slot table of dimension n: for slot i, the bodies of the +1
    letter and of the letters whose product scales it by -1, (-1 * I) and
    the +1 letter of every other slot (so a negative slot is one run over
    them), and the bottom letter."""
    words = {}
    for i in range(1, n + 1):
        words[i], words[i, BOTTOM] = _Node((_UT_UP[i],)), _UT_BOT[i]
        words[-i] = _Node((NEG_I, *[_UT_UP[j] for j in range(1, n + 1) if j != i]))
    return words


def _ut_walk(g, words, elems, out):
    """Append the triangular factorization of the upper triangular rows
    g to the part list out, and return out.

    Emits columns right to left and each column bottom-up, so the
    diagonal cell of a column comes first.  words is the slot table of
    the diagonal scalings and elems[i, j] the word for E(i, j, 0); a
    finite entry above the diagonal is that letter conjugated by slot-i
    scalings, three parts, and a zero diagonal cell or a -inf entry
    above it emits nothing.
    """
    n = len(g)
    for j in range(n, 0, -1):
        for i in range(j, 0, -1):
            a = g[i - 1][j - 1]
            if i == j:
                if a:
                    out.append(_slot(words, i, a))
            elif a != BOTTOM:
                out += (_slot(words, i, a), elems[i, j], _slot(words, i, -a)) if a else (elems[i, j],)
    return out


def factor_ut(m: Matrix) -> Word:
    """Upper triangular factorization over the ut alphabet.

    Emits columns right to left, each column bottom-up, the diagonal
    cell of the column first; multiplying back is exact for every upper
    triangular input.
    """
    if m.semiring is not ZMAX:
        raise MembershipError("factor_ut expects a zmax matrix")
    if not is_upper_triangular(m):
        raise MembershipError(f"matrix is not upper triangular: {format_matrix(m)}")
    return Word("ut", m.n, _cat(_ut_walk(m.rows, _ut_slots(m.n), _UT_E, [])))


def factor_unitriangular(m: Matrix) -> Word:
    """Factor a unit-diagonal triangular matrix into single E letters,
    one per finite strictly-upper entry, columns right to left."""
    if m.semiring is not ZMAX:
        raise MembershipError("factor_unitriangular expects a zmax matrix")
    if not is_unitriangular(m):
        raise MembershipError(
            f"matrix is not unitriangular (unit diagonal, nothing below): {format_matrix(m)}"
        )
    n, rows = m.n, m.rows
    parts = []
    for j in range(n, 1, -1):
        for i in range(1, j):
            a = rows[i - 1][j - 1]
            if a != BOTTOM:
                parts.append(elem_letter(i, j, a))
    return Word("u", n, _cat(parts))


# -- the invertible group --------------------------------------------------

@cache
def _gl_bits(n: int) -> dict:
    """Shared sub-words for dimension n, built once.

    Y = B^{n-2} A^{n-1} B realizes the inverse rotation (the full cycle
    to the power n-1); from it come the full cycle Pc = Y^{n-1}, the
    short rotation Prho = B Y A, the transposition P12 = Pc^{n-2} Prho Pc,
    and the slot-1 diagonal words A1p = A Prho^{n-2} (scale by +1) and
    A1m = B Pc^{n-1} (scale by -1).
    """
    Y = _Node((_pow(GL_B, n - 2), _pow(GL_A, n - 1), GL_B))
    Pc = _pow(Y, n - 1)
    Prho = _Node((GL_B, Y, GL_A))
    P12 = _Node((_pow(Pc, n - 2), Prho, Pc))
    A1p = _Node((GL_A, _pow(Prho, n - 2)))
    A1m = _Node((GL_B, _pow(Pc, n - 1)))
    return {"Y": Y, "Pc": Pc, "Prho": Prho, "P12": P12, "A1p": A1p, "A1m": A1m}


@cache
def _gl_adjacent_node(n: int, k: int):
    """Word for the adjacent transposition (k, k+1): conjugate the
    (1,2) transposition by powers of the full cycle."""
    bits = _gl_bits(n)
    m = (1 - k) % n
    if m == 0:
        return bits["P12"]
    return _Node((_pow(bits["Pc"], m), bits["P12"], _pow(bits["Pc"], n - m)))


@cache
def _gl_perm_node(img):
    """Word realizing the permutation matrix of the 0-based image tuple
    img; None for the identity, which needs no letters.

    Bubble-sorts the one-line form, recording adjacent swaps; the swaps
    applied first-to-last compose (diagrammatically) back to img, so
    their matrices concatenate in recorded order.
    """
    n = len(img)
    line = list(img)
    swaps = []
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            if line[k] > line[k + 1]:
                line[k], line[k + 1] = line[k + 1], line[k]
                swaps.append(k + 1)
                changed = True
    return _cat([_gl_adjacent_node(n, k) for k in swaps])


@cache
def _gl_slots(n: int) -> dict:
    """The gl slot table of dimension n: the one-part bodies of the words
    for +1 (key i) and -1 (key -i) in slot i, slot 1's A1p and A1m
    conjugated by the transposition (1 i); keyed by the sign, never the
    value, so the table grows with n alone."""
    bits, words = _gl_bits(n), {}
    for i in range(1, n + 1):
        conj = _gl_perm_node((i - 1, *range(1, i - 1), 0, *range(i, n))) if i > 1 else None
        for s, base in ((1, bits["A1p"]), (-1, bits["A1m"])):
            words[s * i] = _Node((base if conj is None else _Node((conj, base, conj)),))
    return words


def _gl_word(out, words, vals, perm=None):
    """Append the word for the matrix diag(vals) * P to out and return
    out: the slot word of words for each nonzero d of vals, then perm,
    the word for P (None for the identity)."""
    for i, d in enumerate(vals, start=1):
        if d:
            out.append(_slot(words, i, d))
    if perm is not None:
        out.append(perm)
    return out


def factor_gl(m: Matrix) -> Word:
    """Factor an invertible matrix over the two-letter alphabet.

    Splits m into a diagonal part times a permutation matrix, words the
    diagonal slot by slot and the permutation by adjacent swaps.  Every
    letter is a unit, so every prefix stays invertible.
    """
    if m.semiring is not ZMAX:
        raise MembershipError("factor_gl expects a zmax matrix")
    if m.n < 2:
        raise MembershipError("the invertible-group factorization needs n >= 2")
    mono = is_monomial(m)
    if mono is None or not all(is_finite(v) for v in mono[1]):
        raise MembershipError(f"matrix is not invertible: {format_matrix(m)}")
    img, vals = mono
    return Word("gl", m.n, _cat(_gl_word([], _gl_slots(m.n), vals, _gl_perm_node(img))))


# -- the full 2x2 monoid ----------------------------------------------------

class _M2Letters:
    """The words the 2x2 factorization writes for its letters A, B, C
    and D: C and D, F = B A, which swaps the two rows (on the left) or
    columns (on the right), F F = I, and the slot table of the diagonal
    (z, 0), one-part bodies: B (key 1) and A B A = B(-1) (key -1)."""

    __slots__ = ("C", "D", "F", "slots")

    def __init__(self, a, b, c, d):
        self.C, self.D = c, d
        self.F = _Node((b, a))
        self.slots = {1: _Node((b,)), -1: _Node((_Node((a, b, a)),))}


_M2 = _M2Letters(M2_A, M2_B, M2_C, M2_D)


def _m2_corner(L, x, y, z):
    # [[-inf, x], [y, z]] = B(x) F B(z) D F B(y - z)
    return [_slot(L.slots, 1, x), L.F, _slot(L.slots, 1, z), L.D, L.F, _slot(L.slots, 1, y - z)]


def _m2_dense(L, a, b, c, d):
    # No bottoms.  m = G B(b) F B(a) where G = [[0, 0], [x, y]] collects
    # the row differences; G itself splits into two one-bottom matrices,
    # by cases on the order of x and y.
    x = d - b
    y = c - a
    if y <= x:
        g = [*_m2_corner(L, 0, y, y), *_m2_corner(L, x - y, 0, 0), L.F]
    else:
        g = [L.F, *_m2_corner(L, 0, -x, -y), L.F, L.F, *_m2_corner(L, x, y, x), L.F]
    return [*g, _slot(L.slots, 1, b), L.F, _slot(L.slots, 1, a)]


# The 2x2 normal forms by bottom mask (bit 2(i-1) + (j-1) set when entry
# (i, j) is -inf): the word parts for the entries a, b, c, d of
# [[a, b], [c, d]], None for a zero scaling.  One finite entry sits at
# (2,1), where C F B(x) puts it.
_M2_FORMS = {
    0b0000: _m2_dense,
    0b0001: lambda L, a, b, c, d: _m2_corner(L, b, c, d),
    # [[-inf, -inf], [c, d]] = C F B(d) D B(c - d)
    0b0011: lambda L, a, b, c, d: [L.C, L.F, _slot(L.slots, 1, d), L.D, _slot(L.slots, 1, c - d)],
    # [[-inf, b], [-inf, d]] = B(b) F B(d) D F C
    0b0101: lambda L, a, b, c, d: [_slot(L.slots, 1, b), L.F, _slot(L.slots, 1, d), L.D, L.F, L.C],
    0b1001: lambda L, a, b, c, d: [_slot(L.slots, 1, b), L.F, _slot(L.slots, 1, c)],
    0b1011: lambda L, a, b, c, d: [L.C, L.F, _slot(L.slots, 1, c)],
    0b1111: lambda L, a, b, c, d: [L.C, L.F, L.C],
}


@cache
def _m2_route(mask: int):
    # s = 2l + r for the route (l, r) of the mask, and its normal form
    for s in range(4):
        form = _M2_FORMS.get(sum(1 << k for k in range(4) if mask >> (k ^ s) & 1))
        if form is not None:
            return s, form


def _factor_m2_node(g, L, out):
    """Append the word for the 2x2 rows g, written in the letters L, to
    out, and return out.

    The route (l, r) is the first pair in the order (0,0), (0,1), (1,0),
    (1,1) such that swapping the rows (l = 1) and the columns (r = 1)
    brings g to a normal form; entry k of the swapped matrix is entry
    k ^ (2l + r) of g.  The word is F^l, the normal form's word, F^r,
    since F swaps the rows on the left, the columns on the right, and
    F F = I.
    """
    f = g[0] + g[1]
    s, form = _m2_route(sum(1 << k for k in range(4) if f[k] == BOTTOM))
    parts = (L.F if s & 2 else None, *form(L, f[s], f[1 ^ s], f[2 ^ s], f[3 ^ s]), L.F if s & 1 else None)
    out += [p for p in parts if p is not None]
    return out


def factor_m2(m: Matrix) -> Word:
    """Factor any 2x2 tropical matrix over the four-letter alphabet.

    Total: row and column swaps bring the -inf positions to one of seven
    normal forms; the no-bottom one peels a difference matrix that
    splits into one-bottom pieces.
    """
    if m.semiring is not ZMAX:
        raise MembershipError("factor_m2 expects a zmax matrix")
    if m.n != 2:
        raise MembershipError(f"factor_m2 expects 2x2, got {m.n}x{m.n}")
    return Word("m2", 2, _cat(_factor_m2_node(m.rows, _M2, [])))


# -- the full 3x3 monoid ----------------------------------------------------

_E12 = _UT_E[1, 2]
_A1INF = _UT_BOT[1]
_P12, _P13, _P23 = _gl_perm_node((1, 0, 2)), _gl_perm_node((2, 1, 0)), _gl_perm_node((0, 2, 1))

# The other letters the m3 words need, as conjugates of the two m3
# letters E(1,2,0) and Ai(1,-inf) by permutation words: E(1,3,0) and
# E(2,3,0), the bottom-diagonal letters of every slot, and the 2x2
# letters lifted into the lower block (one plus A, B, C, D).
_M3_E = {
    (1, 2): _E12,
    (1, 3): _cat([_P23, _E12, _P23]),
    (2, 3): _cat([_gl_perm_node((2, 0, 1)), _E12, _gl_perm_node((1, 2, 0))]),
}
# The slot table: gl's group words, and the (conjugated) bottom letter.
_M3_SLOTS = {**_gl_slots(3), (1, BOTTOM): _A1INF, (2, BOTTOM): _cat([_P12, _A1INF, _P12]),
             (3, BOTTOM): _cat([_P13, _A1INF, _P13])}


_M3_BLOCK = _M2Letters(
    _cat(_gl_word([], _M3_SLOTS, (0, -1, 0), _P23)),
    _M3_SLOTS[2].parts[0],
    _M3_SLOTS[2, BOTTOM],
    _cat([_gl_perm_node((2, 0, 1)), _E12, _P13]),
)


_S3 = list(itertools.permutations(range(3)))
_M3_ROW = cache(itemgetter)  # one itemgetter per index triple, shared by the routes


def _bits(cells):
    # cells 1-based, as the rules below write them
    return sum(1 << 3 * i + j - 4 for i, j in cells)


# Per pair (s, t) of _S3, at index 6 s + t, the bit that each of m's nine
# cells lands on in P_s m P_t: cell (i, j) of m lands at (s^-1(i), t(j)).
_M3_MOVES = [tuple([1 << 3 * i + j for i in _inverse(s) for j in t]) for s in _S3 for t in _S3]

# The dispatcher's rules, in the order they apply: the branch, the cells
# its normal form needs at -inf, and the order in which it scans the
# (s, t) pairs, as indices into _M3_MOVES; no one order serves every
# rule.  gl needs its cells to be exactly the bottoms; a mask that no
# rule matches is dense.
_M3_RULES = [
    ("gl", _bits((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j), range(36)),
    ("ut", _bits([(2, 1), (3, 1), (3, 2)]), range(36)),
    ("block", _bits([(1, 2), (1, 3), (2, 1), (3, 1)]), range(36)),
    ("split-row", _bits([(3, 1), (3, 2)]), [6 * s + t for s in (0, 1, 2, 4, 5, 3) for t in range(6)]),
    ("split-col", _bits([(1, 3), (2, 3)]), [6 * s + t for s in range(6) for t in (0, 1, 2, 3, 5, 4)]),
    ("x", _bits([(1, 1), (2, 2), (3, 3)]), [6 * s + t for t in range(6) for s in range(6)]),
    ("clear", _bits([(2, 3), (3, 2)]), range(36)),
    ("clear", _bits([(2, 3)]), range(36)),
]


# The dispatcher's case analysis reads only where the -inf entries sit,
# so every decision except the dense split is looked up by bottom mask
# (bit 3(i-1) + (j-1) set when entry (i, j) is -inf), one mask at a
# time, the first time it is seen.
@cache
def _m3_fill(mask: int):
    """The route (branch, s, t, step) of one mask: the branch of the
    first rule in _M3_RULES that matches it (dense if none does), the
    row and column permutations of its normal form P_s m P_t, and the
    step (rows, left, right) that builds the normal form: the itemgetter
    rows[i] takes row i of P_s m P_t from m's rows laid end to end, and
    the permutation words left = P_{s^-1} and right = P_{t^-1} (None
    for the identity) wrap the branch's word.
    """
    branch, s, t = _m3_find_route(mask)
    tinv = _inverse(t)
    rows = tuple(_M3_ROW(*[3 * s[i] + tinv[j] for j in range(3)]) for i in range(3))
    return branch, s, t, (rows, _gl_perm_node(_inverse(s)), _gl_perm_node(tinv))


def _m3_find_route(mask: int):
    """The first rule, and the first pair in its order, whose normal form
    P_s m P_t has -inf at every cell the rule needs: the branch and (s, t)."""
    bottoms = [k for k in range(9) if mask >> k & 1]
    moved = [sum([to[k] for k in bottoms]) for to in _M3_MOVES]
    for branch, need, order in _M3_RULES:
        for p in order:
            if (moved[p] == need) if branch == "gl" else not need & ~moved[p]:
                return branch, _S3[p // 6], _S3[p % 6]
    if len(bottoms) >= 4:
        # Never reached: every mask of four or more bottoms has a gl, ut
        # or block form (criterion 9).
        raise AssertionError(f"no triangular or block form for bottom mask {mask}")
    return "dense", _IDENT3, _IDENT3


# Each branch below gets g, the rows of its normal form P_s m P_t, and
# appends the word parts that go between the two permutation words to
# out, the one part list of the whole word.

def _m3_block(g, depth: int, out):
    _gl_word(out, _M3_SLOTS, (g[0][0],))
    _factor_m2_node(((g[1][1], g[1][2]), (g[2][1], g[2][2])), _M3_BLOCK, out)


def _m3_split_row(g, depth: int, out):
    # Row 3 holds the bottom pair (plus a possible third) in columns 1
    # and 2; it peels off:
    # [[a,b,c],[d,e,x],[-,-,y]] = [[0,-,c],[-,0,x],[-,-,y]] * [[a,b,-],[d,e,-],[-,-,0]].
    _m3_node(((0, BOTTOM, g[0][2]), (BOTTOM, 0, g[1][2]), (BOTTOM, BOTTOM, g[2][2])), depth + 1, out)
    _m3_node(((g[0][0], g[0][1], BOTTOM), (g[1][0], g[1][1], BOTTOM), (BOTTOM, BOTTOM, 0)), depth + 1, out)


def _m3_split_col(g, depth: int, out):
    # Dual: column 3 holds the bottom pair in rows 1 and 2; it peels
    # off on the right:
    # [[a,b,-],[d,e,-],[f,g,y]] = [[a,b,-],[d,e,-],[-,-,0]] * [[0,-,-],[-,0,-],[f,g,y]].
    _m3_node(((g[0][0], g[0][1], BOTTOM), (g[1][0], g[1][1], BOTTOM), (BOTTOM, BOTTOM, 0)), depth + 1, out)
    _m3_node(((0, BOTTOM, BOTTOM), (BOTTOM, 0, BOTTOM), g[2]), depth + 1, out)


def _m3_x_route(g, depth: int, out):
    # Three bottoms on the diagonal: strip a diagonal scaling and land
    # in the X family.
    a, b = g[0][1], g[0][2]
    c, d = g[1][0], g[1][2]
    e, f = g[2][0], g[2][1]
    x, y, z = b - a, c - d, f - e
    s = x + y + z
    # The stripped matrix is diag(l) X(i) diag(r) for s >= 0; for s < 0
    # it is [[-,-,0],[-,-x,-],[z,-,-]] X(-s) [[-,-,x],[-,0,-],[s-z,-,-]].
    if s >= 0:
        perm, l, r = None, (0, s - x, z), (-z, 0, x - s)
    else:
        perm, l, r = _P13, (0, -x, z), (x, 0, s - z)
    _gl_word(out, _M3_SLOTS, (a, d, e))
    _gl_word(out, _M3_SLOTS, l, perm).append(x_letter(abs(s)))
    _gl_word(out, _M3_SLOTS, r, perm)


def _m3_clear(g, depth: int, out):
    # One bottom at (2,3), or two at (2,3) and (3,2): peel one
    # parametrized E_12 off the left, which plants a new bottom at (1,2)
    # or (1,1).
    (a, b, c), (d, e, _), _ = g
    if a + e >= b + d:
        lam = b - e
        top = (a, BOTTOM, c)
    else:
        lam = a - d
        top = (BOTTOM, b, c)
    out += (_slot(_M3_SLOTS, 1, lam), _E12, _slot(_M3_SLOTS, 1, -lam)) if lam else (_E12,)
    _m3_node((top, g[1], g[2]), depth + 1, out)


def _m3_dense(g, depth: int, out):
    # No bottoms: normalize the top row to zeros, sort columns by the
    # second row, and split by where the third row's first entry sits.
    top = g[0]
    m0 = [[x - y for x, y in zip(row, top)] for row in g]
    order = sorted(range(3), key=m0[1].__getitem__)
    (a, b, c), (d, e, f) = ([row[o] for o in order] for row in m0[1:])
    if d <= e and d <= f:
        left = ((0, BOTTOM, BOTTOM), (a, b, c), (d, e, f))
        right = ((0, 0, 0), (BOTTOM, 0, BOTTOM), (BOTTOM, BOTTOM, 0))
    elif d >= e:
        left = ((0, -b, -d), (c, 0, BOTTOM), (f, BOTTOM, 0))
        right = ((BOTTOM, BOTTOM, 0), (a, b, BOTTOM), (d, e, BOTTOM))
    else:
        left = ((0, -c, -d), (b, 0, BOTTOM), (e, BOTTOM, 0))
        right = ((BOTTOM, 0, BOTTOM), (a, BOTTOM, c), (d, BOTTOM, f))
    _m3_node(left, depth + 1, out)
    _m3_node(right, depth + 1, out)
    _gl_word(out, _M3_SLOTS, (), _gl_perm_node(tuple(order)))
    _gl_word(out, _M3_SLOTS, top)


_M3_BRANCHES = {
    # Slot scalings only: with the permutation word right, they make the
    # word factor_gl builds.
    "gl": lambda g, depth, out: _gl_word(out, _M3_SLOTS, (g[0][0], g[1][1], g[2][2])),
    "ut": lambda g, depth, out: _ut_walk(g, _M3_SLOTS, _M3_E, out),
    "block": _m3_block,
    "split-row": _m3_split_row,
    "split-col": _m3_split_col,
    "x": _m3_x_route,
    "clear": _m3_clear,
    "dense": _m3_dense,
}


def _m3_node(g, depth: int, out):
    """Append the word for the 3x3 rows g to out, and return out: its
    route's left permutation word, its branch's parts, its right one."""
    if depth > 6:
        raise AssertionError(
            f"factor_m3 dispatcher exceeded its recursion bound on {format_matrix(_mk(3, ZMAX, g))}"
        )
    f = g[0] + g[1] + g[2]
    mask = 0
    for k, x in enumerate(f):
        if x == BOTTOM:
            mask |= 1 << k
    branch, _, _, ((r1, r2, r3), left, right) = _m3_fill(mask)
    if left is not None:
        out.append(left)
    _M3_BRANCHES[branch]((r1(f), r2(f), r3(f)), depth, out)
    if right is not None:
        out.append(right)
    return out


def factor_m3(m: Matrix) -> Word:
    """Factor any 3x3 tropical matrix over the m3 alphabet.

    Each step works on the matrix's rows as plain tuples and looks its
    case up by the bottom mask (the positions of the -inf entries) in a
    table that is filled the first time a mask is seen, together with
    the cells that gather the case's normal form P_s m P_t and the
    permutation words around it.  The table's rules, tried in order,
    each name the cells that must be -inf in the normal form, and the
    first permutation pair that puts bottoms there wins.  Invertible
    patterns (bottoms exactly off the diagonal) move their finite
    entries onto the diagonal and become slot scalings; a triangular
    form takes the ut walk over the m3 letters, and a scalar-plus-block
    form the 2x2 words over the lifted block letters; a bottom pair in
    one row or column splits a triangular or block factor off; a
    diagonal bottom pattern lands in the X family; one or two scattered
    bottoms are grown by clearing an entry with a parametrized E_12; a
    mask that no rule matches is dense (the identity pair) and splits
    into easier pieces after column sorting.  Each recursion strictly
    increases the bottom count, so the depth is bounded (asserted at 6).
    Every step appends its parts to one list, the root's parts.
    """
    if m.semiring is not ZMAX:
        raise MembershipError("factor_m3 expects a zmax matrix")
    if m.n != 3:
        raise MembershipError(f"factor_m3 expects 3x3, got {m.n}x{m.n}")
    return Word("m3", 3, _cat(_m3_node(m.rows, 0, [])))


# The factorizer of each monoid family by name.
FACTORIZERS = {
    "ut": factor_ut,
    "u": factor_unitriangular,
    "gl": factor_gl,
    "m2": factor_m2,
    "m3": factor_m3,
}


def factor(m: Matrix, monoid: str) -> Word:
    """Dispatch by monoid name, as the CLI does."""
    factorizer = FACTORIZERS.get(monoid)
    if factorizer is None:
        raise ValueError(f"unknown monoid {monoid!r}")
    return factorizer(m)
