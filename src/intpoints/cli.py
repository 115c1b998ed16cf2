"""Command line front end.

Subcommands: verify, embed, search, modsearch, catalog.  Exit codes are
uniform across commands: 0 for semantic success, 1 for semantic failure
(a failed verification, an unrealizable matrix), 2 for unusable input or
output (parse errors, contradictory flags, a number too hard to factor, an
unreadable file, a stdout closed early) and for input too large for memory
(a search or modsearch refused before it allocates, or out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from . import catalog
from .arith import FactorBoundExceeded, decimal_int
from .modplane import mod_max_general_position
from .pointset import (
    DistanceMatrix,
    EmbeddedPointSet,
    InvalidDistanceMatrix,
    NotRealizable,
    embed,
    parse_matrix_text,
    pointset_characteristic,  # not called here; perfbench/tracing.py wraps this name
    verify,
)
from .search import CharFilter, CheckpointError, SearchConfig, search

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _ratio(p: int, q: int) -> str:
    """p/q in lowest terms, for q > 0, as "p/q" (a Fraction's terms)."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def _read_matrix(path: str) -> DistanceMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidDistanceMatrix(f"{path} is not UTF-8 text: {exc}") from None
    return parse_matrix_text(text)


def _coords_json(e: EmbeddedPointSet) -> list[dict]:
    """The points (x, q*sqrt(k)) of ``e``, with x and q as "p/q" texts."""
    s, k = e.scale, e.k
    return [{"x": _ratio(x, s), "y": {"coeff": _ratio(y, s), "radicand": k}} for x, y in zip(e.xs, e.ys)]


def cmd_verify(args) -> int:
    m = _read_matrix(args.matrix)
    report = verify(m)
    if args.json:
        payload = {
            name: {"passed": getattr(report, name).passed, "detail": getattr(report, name).detail}
            for name in report.CHECK_FIELDS
        }
        payload["diameter"] = report.diameter
        payload["characteristic"] = report.characteristic
        payload["cluster_candidate"] = report.cluster_candidate
        payload["passed"] = report.passed
        print(json.dumps(payload))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_embed(args) -> int:
    m = _read_matrix(args.matrix)
    try:
        e = embed(m)
    except NotRealizable as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return EXIT_FAIL
    points = _coords_json(e)
    if args.format == "json":
        print(json.dumps({"n": e.n, "radicand": e.k, "points": points}))
    else:
        for p in points:
            print(f"({p['x']}, {p['y']['coeff']} sqrt({e.k}))")
    return EXIT_OK


def _record(m: DistanceMatrix) -> str:
    """One JSON line of a search result: its matrix and its exact points.

    The points are those of ``embed``, formatted from its integer frame; no
    ``Fraction`` is built.  No three points of a search result are
    collinear, so every triangle, the frame's base triangle too, has the
    set's characteristic.
    """
    e = embed(m)
    return json.dumps(
        {
            "n": m.n,
            "diameter": m.diameter(),
            "characteristic": e.k,
            "matrix": [list(r) for r in m.rows],
            "points": _coords_json(e),
        }
    )


def cmd_search(args) -> int:
    try:
        char_filter = CharFilter.parse(args.char)
    except ValueError as exc:
        print(f"error: bad --char value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    shard = (0, 1)
    if args.shard:
        try:
            index, _, total = args.shard.partition("/")
            shard = (decimal_int(index), decimal_int(total))
        except ValueError:
            print(f"error: bad --shard value {args.shard!r}, expected i/t", file=sys.stderr)
            return EXIT_USAGE
    try:
        config = SearchConfig(
            target_n=args.n,
            d_min=args.dmin,
            d_max=args.dmax,
            char_filter=char_filter,
            shard=shard,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    count = 0
    try:
        for m in search(config, checkpoint=args.resume):
            # the checkpoint line of a key is written on the next step of
            # the search, so its records must have left this process first
            print(_record(m), flush=args.resume is not None)
            count += 1
    except MemoryError as exc:
        # reported once the handler has let go of the traceback, whose
        # frames hold the search's partly built candidate index
        detail = str(exc) or (
            f"searching diameters {config.d_min}..{config.d_max} (the candidate index "
            "of one diameter d holds up to d(d+1)/2 candidates)"
        )
    else:
        print(f"# {count} point set(s)", file=sys.stderr)
        return EXIT_OK
    print(f"error: out of memory after {count} point set(s): {detail}", file=sys.stderr)
    return EXIT_USAGE


def cmd_modsearch(args) -> int:
    m = args.modulus
    try:
        result = mod_max_general_position(m, node_budget=args.budget)
    except ValueError as exc:  # a modulus below 2 or a negative budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # reported once the handler has let go of the traceback, whose
        # frames hold the bitsets
        result, detail = None, str(exc) or f"searching Z_{m}^2 (2*{m}^4 + {m}^3 mask bits)"
    if result is None:
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_USAGE
    bound = "=" if result.exact else ">="
    print(f"max_general_position(modulus={m}) {bound} {result.size}")
    if not result.exact:
        print("# node budget exhausted: value is a lower bound only", file=sys.stderr)
    for u, v in result.witness:
        print(f"{u} {v}")
    print(f"# {result.nodes} node(s)", file=sys.stderr)
    return EXIT_OK


def cmd_catalog(args) -> int:
    width = max(len(e.name) for e in catalog.entries())
    for e in catalog.entries():
        print(f"{e.name:<{width}}  {e.value:>12}  {e.note}")
    return EXIT_OK


@functools.cache  # one parser per process: in-process callers run main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intpoints",
        description="Exact search, embedding and verification of plane integral point sets in general position.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a distance-matrix certificate")
    p.add_argument("matrix", help="matrix file: first line n, then n symmetric rows")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("embed", help="exact plane coordinates of a matrix")
    p.add_argument("matrix")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("search", help="enumerate point sets by diameter range")
    p.add_argument("--n", type=decimal_int, required=True, help="points per set")
    p.add_argument("--dmin", type=decimal_int, default=1)
    p.add_argument("--dmax", type=decimal_int, required=True)
    p.add_argument("--char", default="any", help="characteristic filter: any, K, or div:K")
    p.add_argument("--shard", default=None, help="process only shard i of t, as i/t")
    p.add_argument("--resume", default=None, metavar="CHECKPOINT",
                   help="checkpoint file: a header with --n, then completed 'd k' keys; "
                        "skipped on re-run, appended as keys finish")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("modsearch", help="maximum general-position set over Z_n^2")
    p.add_argument("--modulus", type=decimal_int, required=True)
    p.add_argument("--budget", type=decimal_int, default=None, help="search node budget (default unlimited)")
    p.set_defaults(func=cmd_modsearch)

    p = sub.add_parser("catalog", help="known reference values")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # input or output no command can use, a stdout closed early included
    except (OSError, InvalidDistanceMatrix, CheckpointError, FactorBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # a failed flush keeps its bytes, and the flush at exit would
            # fail on them again: send them to devnull instead
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            except (OSError, ValueError):  # a stdout with no file descriptor
                pass
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
