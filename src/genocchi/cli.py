"""Command line interface.

Subcommands: triangle, sequence, enumerate, count, map, verify.  Output is
plain text by default; --format csv emits comma-separated rows with a header
and --format json emits stable JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage error (including refused resource guards), 3 invalid input
object.  `map` reads its input object from --input or, when omitted, from
standard input.

`main(argv)` may be called repeatedly in one process: it builds its parser
once, at the first call, and every later call reuses it, so an in-process
caller pays for the argparse tree once, while a one-shot `genocchi` process
builds it once, as it always did.  Each call still parses into a new
namespace and writes its help and usage errors to that call's stdout and
stderr, wrapped to the terminal width at that call.

A command imports only what it runs: `verify` loads the verifier, and the
csv and json writers load their stdlib module at their first call, so
`count` or `map` in the text format loads neither.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from functools import cache
from itertools import chain, islice

from . import maps, models, triangles
from .models import _INVOLUTIVE, MODEL_NAMES

__all__ = ["main"]

# map op -> (its function in maps, its input: a model, "permutation" for a
# word, or None when --model names it)
_MAP_OPS = {
    "phi": ("phi", "chain"),
    "phi-inv": ("phi_inverse", "hetyei"),
    "to-settuple": ("chain_to_settuple", "chain"),
    "to-chain": ("settuple_to_chain", "settuple"),
    "t": ("involution_t", None),
    "r": ("involution_r", None),
    "reduce": ("reduce", None),
    "lift": ("lift", None),
    "embed": ("embed_permutation", "permutation"),
}


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _write_csv(header, rows) -> None:
    """Write the header and the rows as CSV lines, one batch at a time."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for batch in _batches(chain((header,), rows)):
        writer.writerows(batch)
        sys.stdout.write(out.getvalue())
        out.seek(0)
        out.truncate()


def _dump_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=True))


# the most CSV rows, JSON items or text blocks (each at least one line)
# held and written at once: enough to write in few calls, few enough to
# bound the memory
_BATCH = 256


def _batches(items):
    """The items as lists of up to _BATCH, in order."""
    items = iter(items)
    while batch := list(islice(items, _BATCH)):
        yield batch


def _dump_json_list(items) -> None:
    """Print what _dump_json(list(items)) prints, holding one batch at a time."""
    import json

    encode = json.JSONEncoder(sort_keys=True).encode
    sep = "["
    for batch in _batches(items):
        sys.stdout.write(sep + encode(batch)[1:-1])  # "[a, b]" without its brackets
        sep = ", "
    sys.stdout.write("[]\n" if sep == "[" else "]\n")


@contextlib.contextmanager
def _exact_ints():
    """Lift CPython's limit on the digits of an int converted to text (4,300
    by default), where the interpreter has one, while triangle and sequence
    write their exact entries.  map and parse keep it: a number that long
    in an object text is refused as invalid input."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


@_exact_ints()
def _cmd_triangle(args) -> int:
    rows_of = triangles._kreweras_rows if args.which == "kreweras" else triangles._seidel_rows
    rows = islice(rows_of(), args.rows)
    if args.format == "csv":
        head = ("n", "k", "value") if args.which == "kreweras" else ("i", "j", "value")
        _write_csv(head, ((i, j, v) for i, row in enumerate(rows, 1)
                          for j, v in enumerate(row, 1)))
    elif args.format == "json":
        _dump_json_list(rows)
    else:
        for row in rows:
            print(" ".join(str(v) for v in row))
    return 0


@_exact_ints()
def _cmd_sequence(args) -> int:
    fn = {"genocchi": triangles.genocchi, "median": triangles.median_genocchi,
          "normalized": triangles.normalized_genocchi}[args.which]
    first = 1 if args.which == "genocchi" else 0
    pairs = ((n, fn(n)) for n in range(first, first + args.count))
    if args.format == "csv":
        _write_csv(("n", "value"), pairs)
    elif args.format == "json":
        _dump_json_list(value for _, value in pairs)
    else:
        for _, value in pairs:
            print(value)
    return 0


def _cmd_enumerate(args) -> int:
    # the walk writes each object's text, and with --stats its k and l,
    # folded from the same choices.  Every format writes a batch at a time
    # and nothing before it has built its first batch: text the lines of
    # its first blocks, csv its header with its first rows, json its "["
    # with its first items, so an order whose first block runs out of
    # memory leaves stdout empty
    if args.format == "text":  # whole blocks of lines, and no object
        for batch in _batches(models._lines(args.model, args.n, args.guard, args.stats)):
            sys.stdout.write("".join(batch))
        return 0
    pairs = models.listing(args.model, args.n, args.guard, stats=args.stats)
    if args.stats:
        if args.format == "csv":
            _write_csv(("serialization", "k", "l"), ((text, k, l) for text, _, k, l in pairs))
        else:
            _dump_json_list({"serialization": text, "k": k, "l": l} for text, _, k, l in pairs)
    elif args.format == "csv":
        _write_csv(("serialization",), ((text,) for text, _ in pairs))
    else:
        _dump_json_list(text for text, _ in pairs)
    return 0


def _cmd_count(args) -> int:
    table = models.statistics_table(args.model, args.n, args.guard)
    if args.by:
        counts = models.marginal(table, "kl".index(args.by), args.n)
        if args.format == "csv":
            _write_csv((args.by, "count"), enumerate(counts, 1))
        elif args.format == "json":
            _dump_json({"model": args.model, "n": args.n, "by": args.by, "counts": counts})
        else:
            print(" ".join(str(c) for c in counts))
    else:
        total = sum(table.values())
        if args.format == "csv":
            _write_csv(("model", "n", "total"), [(args.model, args.n, total)])
        elif args.format == "json":
            _dump_json({"model": args.model, "n": args.n, "total": total})
        else:
            print(total)
    return 0


def _read_stdin() -> str:
    try:
        return sys.stdin.read().removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise models.ModelSyntaxError(f"standard input is not valid text: {exc}") from None


def _cmd_map(args) -> int:
    name, model = _MAP_OPS[args.op]
    model = model or args.model
    if model is None:
        print(f"error: --op {args.op} requires --model", file=sys.stderr)
        return 2
    if args.model not in (None, model):
        print(f"error: --op {args.op} works on {model} input, not {args.model}",
              file=sys.stderr)
        return 2
    text = args.input if args.input is not None else _read_stdin()
    if model == "permutation":  # a word, read as pd2n and dellac words are
        arg = models._parts(text, " ", models._number)
    else:
        arg = models.parse(model, text)
    # looked up at each call, so a replaced map in maps is the one applied
    out = models.serialize(getattr(maps, name)(arg))
    if args.format == "csv":
        _write_csv(("output",), [(out,)])
    elif args.format == "json":
        _dump_json({"op": args.op, "input": text, "output": out})
    else:
        print(out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.max_n, args.pairs_n, limit=args.guard)
    if args.format == "json":
        print(report.to_json(indent=2))
    elif args.format == "csv":
        rows = [(c.n if c.n is not None else "", c.model, c.name, c.status,
                 c.witness or "") for c in report.checks]
        _write_csv(("n", "model", "name", "status", "witness"), rows)
    else:
        print(report.to_text())
    return 0 if report.passed else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    # the parser holds only what is fixed for the life of the process:
    # choices, defaults, types and help text
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default text)")
    guarded = argparse.ArgumentParser(add_help=False, parents=[common])
    guarded.add_argument("--guard", type=_positive, metavar="N",
                         default=models.DEFAULT_ENUMERATION_LIMIT,
                         help="raise the enumeration resource guard to order N")

    parser = argparse.ArgumentParser(
        prog="genocchi",
        description="Triangles, five combinatorial families, and the maps between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("triangle", parents=[common],
                       help="print rows of the Kreweras or Seidel triangle")
    p.add_argument("which", choices=("kreweras", "seidel"))
    p.add_argument("--rows", type=_positive, required=True, metavar="N")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("sequence", parents=[common],
                       help="print a number sequence")
    p.add_argument("which", choices=("genocchi", "median", "normalized"))
    p.add_argument("--count", type=_positive, required=True, metavar="N",
                   help="genocchi prints n = 1..N; median and normalized print n = 0..N-1")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("enumerate", parents=[guarded],
                       help="list all objects of a model at order n")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--stats", action="store_true",
                   help="append the (k, l) statistics to each line")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", parents=[guarded],
                       help="count objects, optionally split by a statistic")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--by", choices=("k", "l"), default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("map", parents=[common],
                       help="apply a bijection, involution, or order map to one object")
    p.add_argument("--op", required=True, choices=tuple(_MAP_OPS))
    p.add_argument("--model", choices=_INVOLUTIVE, default=None,
                   help="input model for t, r, reduce, lift")
    p.add_argument("--input", metavar="S", default=None,
                   help="serialized input object (reads standard input when omitted)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("verify", parents=[guarded],
                       help="run the cross-model consistency suite")
    p.add_argument("--max-n", type=_positive, default=6)
    p.add_argument("--pairs-n", type=_nonnegative, default=4,
                   help="independent pair-count bound (0 skips it); it is its own "
                        "guard, --guard does not apply to it")
    p.add_argument("--json", action="store_const", dest="format", const="json",
                   help="shorthand for --format json")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except models.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except models.ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the tracebacks hold the failed call's frames, and with them the
        # memory that ran out; free them before anything is printed
        while exc is not None:
            exc.__traceback__, exc = None, exc.__context__
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; silence the shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
