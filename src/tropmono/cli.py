"""Command line front end.

Commands: factor, eval, verify, gens, closure, rank, irredundant,
certify-prime, jrel-x, regular.  Matrices come from an argument, a
file, or stdin; the `-inf` token is case-sensitive.  Every command
takes --json for a machine-readable report (schemas are documented in
the README and pinned by golden tests).

Exit codes: 0 success, 1 negative verify verdict, 2 parse or usage
failure, 3 membership violation, 4 internal mismatch (a factorization
that failed its own multiply-back check; never expected).
"""

from __future__ import annotations

import argparse
import json
import sys

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

FACTOR_MONOIDS = ("ut", "u", "gl", "m2", "m3")


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _normalize_matrix_text(text):
    # Allow one row per line in files and on stdin.
    lines = [ln.strip().rstrip(";") for ln in text.splitlines() if ln.strip()]
    return "; ".join(lines)


def _input_matrices(args, semiring):
    """Resolve the matrix inputs of a command: --batch file (one matrix
    per line), positional argument, --file, or stdin, in that order."""
    if getattr(args, "batch", None):
        out = []
        for ln in _read_text(args.batch).splitlines():
            ln = ln.strip()
            if ln:
                out.append(parse_matrix(ln, semiring))
        if not out:
            raise ValueError(f"batch file {args.batch} holds no matrices")
        return out
    if getattr(args, "matrix", None) is not None:
        return [parse_matrix(args.matrix, semiring)]
    if getattr(args, "file", None):
        return [parse_matrix(_normalize_matrix_text(_read_text(args.file)), semiring)]
    text = sys.stdin.read()
    if not text.strip():
        raise ValueError("no matrix given (argument, --file, --batch, or stdin)")
    return [parse_matrix(_normalize_matrix_text(text), semiring)]


def _print_json(payload):
    print(json.dumps(payload))


def _bool(b):
    return "true" if b else "false"


# -- factor ------------------------------------------------------------------

def _cmd_factor(args):
    matrices = _input_matrices(args, ZMAX)
    reports = []
    code = 0
    for m in matrices:
        w = factorize.factor(m, args.monoid)
        ok = evaluate(w) == m
        if not ok:
            code = 4
        reports.append(
            {
                "command": "factor",
                "monoid": args.monoid,
                "n": m.n,
                "matrix": matrix_to_json(m),
                "word": w.text(),
                "letters": w.letter_count(),
                "verified": ok,
            }
        )
    if args.json:
        _print_json(reports if args.batch else reports[0])
    else:
        for r in reports:
            print(r["word"])
            print(f"verified: {_bool(r['verified'])}")
    return code


# -- eval and verify ---------------------------------------------------------

def _monoid_n(args):
    n = args.n
    if n is None:
        n = {"m2": 2, "m3": 3}.get(args.monoid)
    if n is None:
        raise ValueError(f"monoid {args.monoid} needs an explicit -n")
    return n


def _cmd_eval(args):
    n = _monoid_n(args)
    w = parse_word(args.word, args.monoid, n)
    m = evaluate(w)
    if args.json:
        _print_json(
            {
                "command": "eval",
                "monoid": args.monoid,
                "n": n,
                "word": w.text(),
                "matrix": matrix_to_json(m),
            }
        )
    else:
        print(format_matrix(m))
    return 0


def _cmd_verify(args):
    n = _monoid_n(args)
    w = parse_word(args.word, args.monoid, n)
    (m,) = _input_matrices(args, genset.generating_set(args.monoid, n).semiring)
    if m.n != n:
        raise ValueError(f"word is {n}x{n} but matrix is {m.n}x{m.n}")
    ok = evaluate(w) == m
    if args.json:
        _print_json({"command": "verify", "monoid": args.monoid, "n": n, "verified": ok})
    else:
        print(f"verified: {_bool(ok)}")
    return 0 if ok else 1


# -- gens ----------------------------------------------------------------------

def _cmd_gens(args):
    n = _monoid_n(args)
    gs = genset.generating_set(args.monoid, n, max_x=args.max_x)
    texts = [g.text() for g in gs.letters]
    if args.json:
        _print_json(
            {
                "command": "gens",
                "monoid": gs.monoid,
                "n": gs.n,
                "semiring": gs.semiring.name,
                "symbolic": gs.symbolic,
                "letters": texts,
            }
        )
    else:
        for t in texts:
            print(t)
        print(f"letters: {len(texts)}, symbolic: {_bool(gs.symbolic)}")
    return 0


# -- closure family ------------------------------------------------------------

def _closure_gens(args):
    """Generator matrices for closure-like commands, from --gens-file or
    a built-in alphabet; --semiring boolean (the default) maps tropical
    letters through the entrywise support morphism."""
    semiring = semiring_by_name(args.semiring)
    if args.gens_file:
        gens = []
        for ln in _read_text(args.gens_file).splitlines():
            ln = ln.strip()
            if ln:
                gens.append(parse_matrix(ln, semiring))
        if not gens:
            raise ValueError(f"gens file {args.gens_file} holds no matrices")
        return gens
    if not args.monoid:
        raise ValueError("closure needs --gens-file or --monoid")
    n = _monoid_n(args)
    gs = genset.generating_set(args.monoid, n, max_x=args.max_x)
    gens = gs.realized()
    if semiring is BOOLEAN and gs.semiring is ZMAX:
        gens = [boolean_image(g) for g in gens]
    return gens


def _cmd_closure(args):
    fm = finite.closure(_closure_gens(args), cap=args.cap)
    jcount = None
    if args.jclasses and fm.closed:
        jcount = len(finite.jclasses(fm))
    if args.json:
        payload = {
            "command": "closure",
            "n": fm.n,
            "semiring": fm.semiring.name,
            "elements": len(fm),
            "closed": fm.closed,
            "cap": args.cap,
        }
        if args.jclasses:
            payload["jclasses"] = jcount
        _print_json(payload)
    else:
        line = f"elements: {len(fm)}, closed: {_bool(fm.closed)}"
        if not fm.closed:
            line += f" (cap {args.cap} reached)"
        print(line)
        if jcount is not None:
            print(f"jclasses: {jcount}")
    return 0


def _cmd_rank(args):
    fm = finite.closure(_closure_gens(args), cap=args.cap)
    subset = finite.rank_search(fm, args.k)
    found = subset is not None
    if args.json:
        _print_json(
            {
                "command": "rank",
                "elements": len(fm),
                "k": args.k,
                "found": found,
                "subset": subset,
            }
        )
    else:
        print(f"elements: {len(fm)}")
        if found:
            print(f"found: true, subset: {' '.join(str(i) for i in subset)}")
        else:
            print("found: false")
    return 0


def _cmd_irredundant(args):
    fm = finite.closure(_closure_gens(args), cap=args.cap)
    flags = finite.irredundant(fm, fm.gens)
    if args.json:
        _print_json({"command": "irredundant", "gens": len(flags), "necessary": flags})
    else:
        for i, f in enumerate(flags):
            print(f"gen {i}: {'necessary' if f else 'redundant'}")
    return 0


def _cmd_certify_prime(args):
    (m,) = _input_matrices(args, BOOLEAN)
    if m.n == 2:
        base = genset.generating_set("m2", 2)
    elif m.n == 3:
        base = genset.generating_set("m3", 3)
    else:
        raise ValueError(f"certify-prime covers 2x2 and 3x3 matrices, got n={m.n}")
    gens = [boolean_image(g) for g in base.realized()]
    fm = finite.closure(gens)
    if m not in fm:
        raise MembershipError(f"matrix not in the ambient monoid: {format_matrix(m)}")
    prime = finite.prime_certificate(m, fm)
    if args.json:
        _print_json(
            {
                "command": "certify-prime",
                "n": m.n,
                "elements": len(fm),
                "matrix": matrix_to_json(m),
                "prime": prime,
            }
        )
    else:
        print(f"prime: {_bool(prime)}")
    return 0


def _cmd_jrel_x(args):
    related = finite.x_family_j_related(args.s, args.t)
    if args.json:
        _print_json({"command": "jrel-x", "s": args.s, "t": args.t, "related": related})
    else:
        print(f"related: {_bool(related)}")
    return 0


def _cmd_regular(args):
    matrices = _input_matrices(args, ZMAX)
    results = [(m,) + regularity_witness(m) for m in matrices]
    if args.json:
        reports = [
            {
                "command": "regular",
                "n": m.n,
                "matrix": matrix_to_json(m),
                "regular": witness is not None,
                "witness": matrix_to_json(witness) if witness is not None else None,
                "variant": variant,
            }
            for m, witness, variant in results
        ]
        _print_json(reports if args.batch else reports[0])
    else:
        for m, witness, variant in results:
            print(f"regular: {_bool(witness is not None)}")
            if witness is not None:
                print(f"witness: {format_matrix(witness)}")
                print(f"variant: {variant}")
    return 0


# -- parser --------------------------------------------------------------------

def _add_matrix_inputs(p, batch=True):
    p.add_argument("matrix", nargs="?", help="matrix text, rows ';'-separated")
    p.add_argument("--file", help="read the matrix from this file")
    if batch:
        p.add_argument("--batch", help="file with one matrix per line")


def _add_closure_options(p):
    p.add_argument("--gens-file", help="file with one generator matrix per line")
    p.add_argument("--monoid", choices=("ut", "u", "gl", "m2", "m3", "ut_boolean"))
    p.add_argument("-n", type=int, default=None, help="matrix dimension")
    p.add_argument("--max-x", type=int, default=0)
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
    p.add_argument("--monoid", required=True, choices=FACTOR_MONOIDS + ("ut_boolean",))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("word", help='generator word, e.g. "Ai(1,1) E(1,2,0)" or "ε"')
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="check that a word evaluates to a matrix")
    p.add_argument("--monoid", required=True, choices=FACTOR_MONOIDS + ("ut_boolean",))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("word")
    _add_matrix_inputs(p, batch=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gens", help="list the generating alphabet of a monoid")
    p.add_argument("--monoid", required=True, choices=FACTOR_MONOIDS + ("ut_boolean",))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--max-x", type=int, default=0)
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
        return args.func(args)
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
