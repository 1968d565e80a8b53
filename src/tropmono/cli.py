"""Command line front end.

Commands: factor, eval, verify, gens, closure, rank, irredundant,
certify-prime, jrel-x, regular.  Matrices come from an argument, a
file, or stdin; the `-inf` token is case-sensitive.  Every command
returns a JSON report (schemas are documented in the README and pinned
by golden tests) and its text lines, plus an exit code when that is
not 0; main prints the report under --json and the lines otherwise.

Exit codes: 0 success, 1 negative verify verdict, 2 parse or usage
failure or a factor word too long to print, 3 membership violation, 4
internal mismatch (a factorization that failed its own multiply-back
check; never expected).  The message of an error on one line of a
--batch or --gens-file file starts with "line N: ".
"""

import argparse
import json
import sys
from contextlib import contextmanager

from . import factorize, finite, genset
from .factorize import MembershipError, evaluate, parse_word
from .matrix import (
    boolean_image,
    format_matrix,
    matrix_to_json,
    parse_matrix,
    regularity_witness,
)
from .semiring import BOOLEAN, ZMAX, semiring_by_name

FACTOR_MONOIDS = tuple(factorize.FACTORIZERS)
ALPHABETS = tuple(genset.BUILDERS)
# factor prints a word's letters one by one only up to this many.
MAX_WORD_LETTERS = 10 ** 7


@contextmanager
def _at_line(no):
    """Put "line no: " before the message of a ValueError (so also of a
    MembershipError) raised in the block; a line of None adds nothing."""
    try:
        yield
    except ValueError as exc:
        if no is not None:
            exc.args = (f"line {no}: {exc}",)
        raise


def _read_matrices(path, semiring, what):
    """The (line, matrix) pairs of a file that holds one matrix per line;
    lines count from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for no, ln in enumerate(lines, 1):
        if ln.strip():
            with _at_line(no):
                out.append((no, parse_matrix(ln.strip(), semiring)))
    if not out:
        raise ValueError(f"{what} file {path} holds no matrices")
    return out


def _input_matrices(args, semiring):
    """Resolve the matrix inputs of a command as (line, matrix) pairs:
    the --batch file's, or else one with line None from the positional
    argument, --file, or stdin, in that order."""
    if getattr(args, "batch", None):
        return _read_matrices(args.batch, semiring, "batch")
    if getattr(args, "matrix", None) is not None:
        return [(None, parse_matrix(args.matrix, semiring))]
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
        if not text.strip():
            raise ValueError("no matrix given (argument, --file, --batch, or stdin)")
    # Allow one row per line in files and on stdin.
    lines = [ln.strip().rstrip(";") for ln in text.splitlines() if ln.strip()]
    return [(None, parse_matrix("; ".join(lines), semiring))]


def _bool(b):
    return "true" if b else "false"


# -- factor ------------------------------------------------------------------

def _cmd_factor(args):
    reports = []
    for no, m in _input_matrices(args, ZMAX):
        with _at_line(no):
            w = factorize.factor(m, args.monoid)
            count = w.letter_count()
            if count > MAX_WORD_LETTERS:
                raise ValueError(f"the word has {count} letters; factor prints words of at most {MAX_WORD_LETTERS}")
        reports.append(
            {
                "command": "factor",
                "monoid": args.monoid,
                "n": m.n,
                "matrix": matrix_to_json(m),
                "word": w.text(),
                "letters": count,
                "verified": evaluate(w) == m,
            }
        )
    lines = [ln for r in reports for ln in (r["word"], f"verified: {_bool(r['verified'])}")]
    code = 0 if all(r["verified"] for r in reports) else 4
    return (reports if args.batch else reports[0]), lines, code


# -- eval and verify ---------------------------------------------------------

def _monoid_n(args):
    n = args.n
    if n is None:
        n = genset.FIXED_N.get(args.monoid)
    if n is None:
        raise ValueError(f"monoid {args.monoid} needs an explicit -n")
    return n


def _cmd_eval(args):
    n = _monoid_n(args)
    w = parse_word(args.word, args.monoid, n)
    m = evaluate(w)
    report = {
        "command": "eval",
        "monoid": args.monoid,
        "n": n,
        "word": w.text(),
        "matrix": matrix_to_json(m),
    }
    return report, [format_matrix(m)]


def _cmd_verify(args):
    n = _monoid_n(args)
    w = parse_word(args.word, args.monoid, n)
    [(_, m)] = _input_matrices(args, genset.generating_set(args.monoid, n).semiring)
    if m.n != n:
        raise ValueError(f"word is {n}x{n} but matrix is {m.n}x{m.n}")
    ok = evaluate(w) == m
    report = {"command": "verify", "monoid": args.monoid, "n": n, "verified": ok}
    return report, [f"verified: {_bool(ok)}"], 0 if ok else 1


# -- gens ----------------------------------------------------------------------

def _cmd_gens(args):
    n = _monoid_n(args)
    gs = genset.generating_set(args.monoid, n)
    texts = [g.text() for g in gs.letters]
    report = {
        "command": "gens",
        "monoid": gs.monoid,
        "n": gs.n,
        "semiring": gs.semiring.name,
        "symbolic": gs.symbolic,
        "letters": texts,
    }
    return report, texts + [f"letters: {len(texts)}, symbolic: {_bool(gs.symbolic)}"]


# -- closure family ------------------------------------------------------------

def _alphabet(monoid, n, semiring):
    """The realized letters of a built-in alphabet; over the Booleans,
    tropical letters pass through the entrywise support morphism, while
    a Boolean alphabet has no tropical letters (ValueError)."""
    gs = genset.generating_set(monoid, n)
    if semiring is not gs.semiring and semiring is not BOOLEAN:
        raise ValueError(f"the {monoid} alphabet is over the {gs.semiring.name} semiring, not {semiring.name}")
    gens = gs.realized()
    if semiring is BOOLEAN and gs.semiring is ZMAX:
        gens = [boolean_image(g) for g in gens]
    return gens


def _closure(args, finite_only=False, limit=None):
    """The finite monoid of closure-like commands, generated by
    --gens-file or a built-in alphabet over --semiring (default
    boolean).  With finite_only, a zmax generator whose powers are
    pairwise distinct is refused (ValueError) before any enumeration,
    and a closure that reaches the cap after it; with a limit, one that
    passes limit elements is refused there, before the cap."""
    semiring = semiring_by_name(args.semiring)
    if args.gens_file:
        read = _read_matrices(args.gens_file, semiring, "gens")
        gens = [m for _, m in read]
        names = [f"the generator on line {no}" for no, _ in read]
    elif not args.monoid:
        raise ValueError("closure needs --gens-file or --monoid")
    else:
        n = _monoid_n(args)
        gens = _alphabet(args.monoid, n, semiring)
        names = [f"letter {g.text()}" for g in genset.generating_set(args.monoid, n).letters]
    witness = finite.infinite_witness(gens) if finite_only else None
    if witness is not None:
        gi, mean = witness
        raise ValueError(
            f"{args.command} needs a finite monoid, but {names[gi]} has maximum cycle mean {mean}, "
            "not 0, so its powers are pairwise distinct"
        )
    # With a limit, stop one element past it, or past the generators when
    # there are more of them, since they all start the closure.
    fm = finite.closure(gens, cap=args.cap if limit is None else min(args.cap, max(limit, len(gens)) + 1))
    if finite_only and not fm.closed:
        if limit is not None and len(fm) > limit:
            raise ValueError(f"{args.command} supports monoids of at most {limit} elements, but this one has more")
        raise ValueError(f"{args.command} needs a finite monoid, "
                         f"but its closure reached the cap of {args.cap} elements")
    return fm


def _cmd_closure(args):
    fm = _closure(args)
    jcount = None
    if args.jclasses and fm.closed:
        jcount = len(finite.jclasses(fm))
    report = {
        "command": "closure",
        "n": fm.n,
        "semiring": fm.semiring.name,
        "elements": len(fm),
        "closed": fm.closed,
        "cap": args.cap,
    }
    if args.jclasses:
        report["jclasses"] = jcount
    lines = [f"elements: {len(fm)}, closed: {_bool(fm.closed)}"]
    if not fm.closed:
        lines[0] += f" (cap {args.cap} reached)"
    if jcount is not None:
        lines.append(f"jclasses: {jcount}")
    return report, lines


def _cmd_rank(args):
    fm = _closure(args, finite_only=True, limit=2 ** 15)  # UT_5(B) fills it
    subset = finite.rank_search(fm, args.k)
    found = subset is not None
    report = {
        "command": "rank",
        "elements": len(fm),
        "k": args.k,
        "found": found,
        "subset": subset,
    }
    verdict = f"found: true, subset: {' '.join(str(i) for i in subset)}" if found else "found: false"
    return report, [f"elements: {len(fm)}", verdict]


def _cmd_irredundant(args):
    fm = _closure(args, finite_only=True)
    flags = finite.irredundant(fm, fm.gens)
    lines = [f"gen {i}: {'necessary' if f else 'redundant'}" for i, f in enumerate(flags)]
    return {"command": "irredundant", "gens": len(flags), "necessary": flags}, lines


def _cmd_certify_prime(args):
    [(_, m)] = _input_matrices(args, BOOLEAN)
    ambient = {k: name for name, k in genset.FIXED_N.items()}.get(m.n)
    if ambient is None:
        raise ValueError(f"certify-prime covers 2x2 and 3x3 matrices, got n={m.n}")
    fm = finite.closure(_alphabet(ambient, m.n, BOOLEAN))
    if m not in fm:
        raise MembershipError(f"matrix not in the ambient monoid: {format_matrix(m)}")
    prime = finite.prime_certificate(m, fm)
    report = {
        "command": "certify-prime",
        "n": m.n,
        "elements": len(fm),
        "matrix": matrix_to_json(m),
        "prime": prime,
    }
    return report, [f"prime: {_bool(prime)}"]


def _cmd_jrel_x(args):
    related = finite.x_family_j_related(args.s, args.t)
    return {"command": "jrel-x", "s": args.s, "t": args.t, "related": related}, [f"related: {_bool(related)}"]


def _cmd_regular(args):
    reports = []
    lines = []
    for no, m in _input_matrices(args, ZMAX):
        with _at_line(no):
            witness, variant = regularity_witness(m)
        reports.append(
            {
                "command": "regular",
                "n": m.n,
                "matrix": matrix_to_json(m),
                "regular": witness is not None,
                "witness": matrix_to_json(witness) if witness is not None else None,
                "variant": variant,
            }
        )
        lines.append(f"regular: {_bool(witness is not None)}")
        if witness is not None:
            lines += [f"witness: {format_matrix(witness)}", f"variant: {variant}"]
    return (reports if args.batch else reports[0]), lines


# -- parser --------------------------------------------------------------------

def _add_matrix_inputs(p, batch=True):
    p.add_argument("matrix", nargs="?", help="matrix text, rows ';'-separated")
    p.add_argument("--file", help="read the matrix from this file")
    if batch:
        p.add_argument("--batch", help="file with one matrix per line")


def _add_closure_options(p):
    p.add_argument("--gens-file", help="file with one generator matrix per line")
    p.add_argument("--monoid", choices=ALPHABETS)
    p.add_argument("-n", type=int, default=None, help="matrix dimension")
    p.add_argument(
        "--semiring",
        choices=("zmax", "boolean"),
        default="boolean",
        help="semiring of the generator matrices (default boolean)",
    )
    p.add_argument("--cap", type=int, default=finite.DEFAULT_CAP)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropmono",
        description="Factor tropical matrices into generator words and explore "
        "the finite Boolean shadows of their monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a matrix into a generator word")
    p.add_argument("--monoid", required=True, choices=FACTOR_MONOIDS)
    _add_matrix_inputs(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("eval", help="evaluate a generator word to a matrix")
    p.add_argument("--monoid", required=True, choices=ALPHABETS)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("word", help='generator word, e.g. "Ai(1,1) E(1,2,0)" or "ε"')
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="check that a word evaluates to a matrix")
    p.add_argument("--monoid", required=True, choices=ALPHABETS)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("word")
    _add_matrix_inputs(p, batch=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gens", help="list the generating alphabet of a monoid")
    p.add_argument("--monoid", required=True, choices=ALPHABETS)
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("closure", help="enumerate the monoid generated by matrices")
    _add_closure_options(p)
    p.add_argument("--jclasses", action="store_true", help="also count J-classes")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("rank", help="search for a size-k generating subset")
    _add_closure_options(p)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("irredundant", help="flag which generators are necessary")
    _add_closure_options(p)
    p.set_defaults(func=_cmd_irredundant)

    p = sub.add_parser("certify-prime", help="certify a Boolean matrix prime")
    _add_matrix_inputs(p, batch=False)
    p.set_defaults(func=_cmd_certify_prime)

    p = sub.add_parser("jrel-x", help="decide J-relatedness inside the X family")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_cmd_jrel_x)

    p = sub.add_parser("regular", help="decide regularity of a tropical matrix")
    _add_matrix_inputs(p)
    p.set_defaults(func=_cmd_regular)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, lines, *code = args.func(args)
        print(json.dumps(report) if args.json else "\n".join(lines))
        return code[0] if code else 0
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
