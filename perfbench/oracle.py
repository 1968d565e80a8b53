"""Benchmark-owned arithmetic for the correctness checks.

Max-plus and Boolean products, and the letters of the generating
alphabets written down from their definitions (PAPER.md and the
alphabet table), so that a word can be multiplied back without the
library's own evaluator.  Matrices are tuples of row tuples; bottom is
float('-inf').

The group letters follow the library's alphabet: A is Ai(1,1) times the
permutation matrix of the cycle (1 2 ... n-1), B is Ai(1,-1) times that
of (1 2 ... n).  For n = 3, the m3 case, A's cycle is the transposition
(1 2) that PAPER.md names.
"""

from __future__ import annotations

import re

NEG_INF = float("-inf")


def identity(n):
    return tuple(tuple(0 if i == j else NEG_INF for j in range(n)) for i in range(n))


def mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(max(x + y for x, y in zip(row, col)) for col in cols) for row in a)


def power(m, k):
    acc = identity(len(m))
    while k:
        if k & 1:
            acc = mul(acc, m)
        k >>= 1
        if k:
            m = mul(m, m)
    return acc


def _with(n, cells):
    out = [list(r) for r in identity(n)]
    for (i, j), v in cells.items():
        out[i - 1][j - 1] = v
    return tuple(tuple(r) for r in out)


def _scaled_cycle(n, upto, scale):
    # Row i holds its unit at column cycle(i); row 1 carries the scale.
    out = [[NEG_INF] * n for _ in range(n)]
    for i in range(1, n + 1):
        j = i % upto + 1 if i <= upto and upto >= 2 else i
        out[i - 1][j - 1] = scale if i == 1 else 0
    return tuple(tuple(r) for r in out)


M2_LETTERS = {
    "A": ((NEG_INF, -1), (0, NEG_INF)),
    "B": ((1, NEG_INF), (NEG_INF, 0)),
    "C": ((NEG_INF, NEG_INF), (NEG_INF, 0)),
    "D": ((0, 0), (0, NEG_INF)),
}

_AI = re.compile(r"^Ai\((\d+),(-inf|-?\d+)\)$")
_E = re.compile(r"^E\((\d+),(\d+),(-inf|-?\d+)\)$")
_X = re.compile(r"^X\((\d+)\)$")


def _scalar(text):
    return NEG_INF if text == "-inf" else int(text)


def letter(token, monoid, n):
    """The matrix of one letter token in a word of the given monoid."""
    if monoid == "m2" and token in M2_LETTERS:
        return M2_LETTERS[token]
    if token == "A" and monoid in ("gl", "m3"):
        return _scaled_cycle(n, n - 1, 1)
    if token == "B" and monoid in ("gl", "m3"):
        return _scaled_cycle(n, n, -1)
    if token == "I":
        return identity(n)
    if token == "NEG_I":
        return tuple(tuple(-1 if i == j else NEG_INF for j in range(n)) for i in range(n))
    hit = _AI.match(token)
    if hit:
        i = int(hit.group(1))
        return _with(n, {(i, i): _scalar(hit.group(2))})
    hit = _E.match(token)
    if hit:
        i, j = int(hit.group(1)), int(hit.group(2))
        return _with(n, {(i, j): _scalar(hit.group(3))})
    hit = _X.match(token) if n == 3 else None
    if hit:
        x = int(hit.group(1))
        return ((NEG_INF, 0, x), (0, NEG_INF, 0), (0, 0, NEG_INF))
    raise ValueError(f"unknown letter {token!r} for monoid {monoid}, n={n}")


def _columns(m):
    """Per column j, the one row k holding a finite entry and that entry
    (row 0 and -inf for an all-bottom column); None when some column
    holds two finite entries.  Multiplying by such a matrix on the
    right then takes n^2 additions."""
    cols = []
    for j in range(len(m)):
        hits = [(k, row[j]) for k, row in enumerate(m) if row[j] != NEG_INF]
        if len(hits) > 1:
            return None
        cols.append(hits[0] if hits else (0, NEG_INF))
    return cols


def word_product(tokens, monoid, n):
    """Multiply a flat letter sequence.  Runs of one letter fold into a
    power, and powers of monomial letters multiply column by column, so
    that words of tens of thousands of letters stay cheap."""
    acc = identity(n)
    letters = {}
    runs = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        j = i
        while j < len(tokens) and tokens[j] == tok:
            j += 1
        hit = runs.get((tok, j - i))
        if hit is None:
            m = letters.get(tok)
            if m is None:
                m = letters[tok] = letter(tok, monoid, n)
            p = power(m, j - i)
            hit = runs[(tok, j - i)] = (p, _columns(p))
        p, cols = hit
        if cols is None:
            acc = mul(acc, p)
        else:
            acc = tuple(tuple(row[k] + v for k, v in cols) for row in acc)
        i = j
    return acc


def word_tokens(text):
    """Tokens of a printed word; the empty word prints as 'ε'."""
    toks = text.split()
    return [] if toks == ["ε"] else toks


# -- Boolean side --------------------------------------------------------------

def bool_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(1 if any(x and y for x, y in zip(row, col)) else 0 for col in cols) for row in a)


def generated_size(gens):
    """Order of the Boolean monoid generated by gens plus the identity."""
    n = len(gens[0])
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = bool_mul(e, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)
