"""Command line interface.

Subcommands: triangle, sequence, enumerate, count, map, verify.  Output is
plain text by default; --format csv emits comma-separated rows with a header
and --format json emits stable JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage error (including refused resource guards), 3 invalid input
object.  `map` reads its input object from --input or, when omitted, from
standard input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from itertools import islice

from . import maps, models, triangles
from .models import MODEL_NAMES
from .verify import run_suite

__all__ = ["main"]

# map ops whose input model is implied by the op itself
_FIXED_INPUT = {
    "phi": "chain",
    "phi-inv": "hetyei",
    "to-settuple": "chain",
    "to-chain": "settuple",
}
# map ops that need an explicit --model
_MODEL_OPS = ("t", "r", "reduce", "lift")


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
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _dump_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _dump_json_list(items) -> None:
    """Print what _dump_json(list(items)) prints, holding one batch at a time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    items = iter(items)
    sep = ""
    sys.stdout.write("[")
    while batch := list(islice(items, 256)):
        sys.stdout.write(sep + encode(batch)[1:-1])  # "[a, b]" without its brackets
        sep = ", "
    sys.stdout.write("]\n")


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


def _guard_limit(args) -> int | None:
    return args.guard if args.guard is not None else models.DEFAULT_ENUMERATION_LIMIT


@_exact_ints()
def _cmd_triangle(args) -> int:
    row_of = triangles.kreweras_row if args.which == "kreweras" else triangles.seidel_row
    rows = [row_of(i) for i in range(1, args.rows + 1)]
    if args.format == "csv":
        head = ("n", "k", "value") if args.which == "kreweras" else ("i", "j", "value")
        _write_csv(head, ((i, j, v) for i, row in enumerate(rows, 1)
                          for j, v in enumerate(row, 1)))
    elif args.format == "json":
        _dump_json([list(row) for row in rows])
    else:
        for row in rows:
            print(" ".join(str(v) for v in row))
    return 0


@_exact_ints()
def _cmd_sequence(args) -> int:
    if args.which == "genocchi":
        pairs = [(n, triangles.genocchi(n)) for n in range(1, args.count + 1)]
    else:
        fn = triangles.median_genocchi if args.which == "median" else triangles.normalized_genocchi
        pairs = [(n, fn(n)) for n in range(args.count)]
    if args.format == "csv":
        _write_csv(("n", "value"), pairs)
    elif args.format == "json":
        _dump_json([value for _, value in pairs])
    else:
        for _, value in pairs:
            print(value)
    return 0


def _cmd_enumerate(args) -> int:
    objs = models.enumerate_model(args.model, args.n, _guard_limit(args))
    if args.format == "csv":
        if args.stats:
            rows = ((models.serialize(o), *models.statistics(o)) for o in objs)
            _write_csv(("serialization", "k", "l"), rows)
        else:
            _write_csv(("serialization",), ((models.serialize(o),) for o in objs))
    elif args.format == "json":
        if args.stats:
            _dump_json_list(
                {"serialization": models.serialize(o), "k": k, "l": l}
                for o in objs for k, l in (models.statistics(o),)
            )
        else:
            _dump_json_list(models.serialize(o) for o in objs)
    else:
        for obj in objs:
            line = models.serialize(obj)
            if args.stats:
                k, l = models.statistics(obj)
                line += f"\tk={k} l={l}"
            print(line)
    return 0


def _cmd_count(args) -> int:
    objs = models.enumerate_model(args.model, args.n, _guard_limit(args))
    if args.by:
        stat = models.k_statistic if args.by == "k" else models.l_statistic
        counts = [0] * args.n
        for obj in objs:
            counts[stat(obj) - 1] += 1
        if args.format == "csv":
            _write_csv((args.by, "count"), enumerate(counts, 1))
        elif args.format == "json":
            _dump_json({"model": args.model, "n": args.n, "by": args.by, "counts": counts})
        else:
            print(" ".join(str(c) for c in counts))
    else:
        total = sum(1 for _ in objs)
        if args.format == "csv":
            _write_csv(("model", "n", "total"), [(args.model, args.n, total)])
        elif args.format == "json":
            _dump_json({"model": args.model, "n": args.n, "total": total})
        else:
            print(total)
    return 0


def _apply_map(op: str, model: str | None, text: str):
    if op == "embed":
        return maps.embed_permutation(models._word(text))
    obj = models.parse(model, text)
    if op == "phi":
        return maps.phi(obj)
    if op == "phi-inv":
        return maps.phi_inverse(obj)
    if op == "to-settuple":
        return maps.chain_to_settuple(obj)
    if op == "to-chain":
        return maps.settuple_to_chain(obj)
    if op == "t":
        return maps.involution_t(obj)
    if op == "r":
        return maps.involution_r(obj)
    if op == "reduce":
        return maps.reduce(obj)
    return maps.lift(obj)


def _read_stdin() -> str:
    try:
        return sys.stdin.read().strip()
    except UnicodeDecodeError as exc:
        raise models.ModelSyntaxError(f"standard input is not valid text: {exc}") from None


def _cmd_map(args) -> int:
    model = _FIXED_INPUT.get(args.op, args.model)
    if args.op in _MODEL_OPS and model is None:
        print(f"error: --op {args.op} requires --model", file=sys.stderr)
        return 2
    if args.op in _FIXED_INPUT and args.model not in (None, model):
        print(f"error: --op {args.op} works on {model} input, not {args.model}",
              file=sys.stderr)
        return 2
    text = args.input if args.input is not None else _read_stdin()
    out = models.serialize(_apply_map(args.op, model, text))
    if args.format == "csv":
        _write_csv(("output",), [(out,)])
    elif args.format == "json":
        _dump_json({"op": args.op, "input": text, "output": out})
    else:
        print(out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.max_n, args.pairs_n, limit=_guard_limit(args))
    if args.json or args.format == "json":
        print(report.to_json(indent=2))
    elif args.format == "csv":
        rows = [(c.n if c.n is not None else "", c.model, c.name, c.status,
                 c.witness or "") for c in report.checks]
        _write_csv(("n", "model", "name", "status", "witness"), rows)
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--guard", type=_positive, metavar="N", default=None,
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

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all objects of a model at order n")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--stats", action="store_true",
                   help="append the (k, l) statistics to each line")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", parents=[common],
                       help="count objects, optionally split by a statistic")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--by", choices=("k", "l"), default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("map", parents=[common],
                       help="apply a bijection, involution, or order map to one object")
    p.add_argument("--op", required=True,
                   choices=("phi", "phi-inv", "to-settuple", "to-chain",
                            "t", "r", "reduce", "lift", "embed"))
    p.add_argument("--model", choices=("pd2n", "dellac", "settuple"), default=None,
                   help="input model for t, r, reduce, lift")
    p.add_argument("--input", metavar="S", default=None,
                   help="serialized input object (reads standard input when omitted)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-model consistency suite")
    p.add_argument("--max-n", type=_positive, default=6)
    p.add_argument("--pairs-n", type=_nonnegative, default=4,
                   help="independent pair-count bound (0 skips it); it is its own "
                        "guard, --guard does not apply to it")
    p.add_argument("--json", action="store_true",
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
    except BrokenPipeError:
        # the reader went away; silence the shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
