"""Time one fresh interpreter's set-up for a workload: import tropmono
and finish the workload's first, cold operation.

    python3 perfbench/setup_probe.py library MONOID MATRIX
    python3 perfbench/setup_probe.py finite - GEN [GEN ...]

MATRIX and GEN are matrix texts ("0 1; 1 0").  The library kind factors
MATRIX over MONOID and multiplies the word back; the finite kind takes
the Boolean closure of the GENs and its J-classes.  Results are not
checked here: the benchmark's timed rounds check and count failures.  Nothing but sys and
time is imported before the clock starts, so the import cost of the
standard modules tropmono needs is part of the figure, as it is for a
user.  Prints the seconds taken, rescaled to reference speed (see
refclock.py).
"""

import sys
from time import perf_counter


def main(argv):
    kind, monoid, texts = argv[0], argv[1], argv[2:]
    t0 = perf_counter()
    import tropmono

    try:
        if kind == "finite":
            tropmono.jclasses(tropmono.closure([tropmono.parse_matrix(t, tropmono.BOOLEAN) for t in texts]))
        else:
            tropmono.evaluate(tropmono.factor(tropmono.parse_matrix(texts[0]), monoid))
    except Exception as exc:  # noqa: BLE001 -- the timed rounds check and count failures
        print(f"cold operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
    took = perf_counter() - t0
    from refclock import scale_factor

    print(took * scale_factor())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
