"""Command-line front end.

Subcommands:

* ``invariant`` -- evaluate one invariant, optionally on both routes.
* ``series``    -- verify a generating-series identity to a truncation.
* ``sweep``     -- compare oracle and closed form over a (w, g) grid,
  printing each point as it is computed.
* ``selfcheck`` -- run the built-in property suites.

``--permissive`` reaches both routes: an unproven query is evaluated and
flagged conjectural.  In strict mode (the default) it exits 3.

Every output comes from the JSON records.  One emitter,
``_emit(args, records, text)``, prints each record as soon as it is
computed, as ``json.dumps(record)`` or as the table ``text(record)``,
which reads only the record's own strings.  It writes the ``--out`` file
only after the last record, so a ``sweep`` stopped in strict mode keeps
its earlier points on stdout and writes no file.

Every integer flag, and each number of ``--g`` and ``--w-list``, is
``-?[0-9]+``.  Exit codes are the machine contract: 0 success, 1 failed
selfcheck or closed stdout, 2 route or identity disagreement or internal
cross-check failure, 3 unsupported query in strict mode, 4 invalid input,
a usage error included (argparse's own message).
Rationals are printed exactly as "p/q" strings, never as decimals,
unless an approximation is explicitly requested with --decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .arith import InvariantQuery
from .invariants import (
    ROUTE_CLOSED,
    ROUTE_ORACLE,
    UnsupportedQueryError,
    qm_degree_zero,
    qm_elliptic,
    qm_moduli,
    series_identity_even,
    series_identity_odd,
)

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_UNSUPPORTED = 3
EXIT_INVALID = 4

DEFAULT_SERIES_ORDER = 50
_INTEGER = "-?[0-9]+"  # int() alone would also take "+", "_", blanks and non-ASCII digits


def _integer(text: str) -> int:
    """The argparse ``type=`` of every integer flag."""
    if not re.fullmatch(_INTEGER, text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _breakdown_payload(breakdown) -> list[dict]:
    return [{"m": m, "contribution": str(c)} for m, c in breakdown]


def _breakdown_text(breakdown: list[dict]) -> str:
    return "; ".join(f"m={entry['m']}: {entry['contribution']}" for entry in breakdown)


def _agree(one, other) -> bool:
    """Two routes agree on the value and on the breakdown, divisor by divisor in order."""
    return (one.value_t, one.breakdown) == (other.value_t, other.breakdown)


def _emit(args, records, text) -> dict:
    """Print each record as it arrives, as JSON or as text(record); write --out last; return the last."""
    kept = []
    for record in records:
        print(json.dumps(record) if args.format == "json" else text(record), flush=True)
        if args.out is not None:
            kept.append(record)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(item) + "\n" for item in kept)
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from exc
    return record


def _cmd_invariant(args) -> int:
    query = InvariantQuery(r=args.rank, d=args.deg_d, a=args.deg_a, w=args.degree_w, g=args.genus)
    routes = {"closed": (ROUTE_CLOSED,), "oracle": (ROUTE_ORACLE,), "both": (ROUTE_CLOSED, ROUTE_ORACLE)}[args.route]
    # the constant-map count is the elliptic-side closed form; any other
    # side or route at w = 0 goes on to the w >= 1 gate, which refuses it
    if query.w == 0 and args.side == "elliptic" and args.route != "oracle":
        results = [qm_degree_zero(query)]
    else:
        evaluate = qm_moduli if args.side == "moduli" else qm_elliptic
        results = [evaluate(query, route=route, strict=not args.permissive) for route in routes]
    result = results[-1]
    agree = all(_agree(other, result) for other in results)
    payload = {
        "query": {"r": query.r, "d": query.d, "a": query.a, "w": query.w, "g": query.g, "side": args.side},
        "value": str(result.value_t),
        "route": "both" if len(results) > 1 else result.route,
        "conjectural": result.conjectural,
        "breakdown": _breakdown_payload(result.breakdown),
    }
    if len(results) > 1:
        payload["routes"] = {
            name: {"value": str(r.value_t), "breakdown": _breakdown_payload(r.breakdown)}
            for name, r in zip(routes, results)
        }
        payload["identity_checks"] = [{"name": "route_agreement", "pass": agree}]
    if args.decimal:
        try:
            payload["approx"] = float(result.value_t)
        except OverflowError:
            raise ValueError("--decimal: value is too large for a float approximation") from None
    if args.raw:
        payload["raw"] = f"({payload['value']})*t"
    try:
        _emit(args, [payload], _invariant_text)
    finally:
        # reported even when --out cannot be written, whose error then sets exit 4
        if not agree:
            closed, oracle = payload["routes"].values()
            if closed["value"] != oracle["value"]:
                detail = f"closed={closed['value']} oracle={oracle['value']}"
            else:
                detail = (
                    f"equal values {oracle['value']}, breakdowns differ: closed "
                    f"{_breakdown_text(closed['breakdown'])}, oracle {_breakdown_text(oracle['breakdown'])}"
                )
            print(f"route disagreement: {detail}", file=sys.stderr)
    return EXIT_OK if agree else EXIT_DISAGREE


def _invariant_text(record: dict) -> str:
    lines = [
        "query        " + " ".join(f"{key}={value}" for key, value in record["query"].items()),
        f"value        {record['value']}",
        f"route        {record['route']}",
        f"conjectural  {'yes' if record['conjectural'] else 'no'}",
    ]
    if record["breakdown"]:
        lines.append(f"breakdown    {_breakdown_text(record['breakdown'])}")
    lines.extend(f"{name:<12} value {route['value']}" for name, route in record.get("routes", {}).items())
    lines.extend(
        f"check        {check['name']}: {'pass' if check['pass'] else 'FAIL'}"
        for check in record.get("identity_checks", ())
    )
    if "approx" in record:
        lines.append(f"approx       {record['approx']} (decimal approximation)")
    if "raw" in record:
        lines.append(f"raw          {record['raw']}")
    return "\n".join(lines)


def _cmd_series(args) -> int:
    identity = series_identity_odd if args.identity == "A" else series_identity_even
    check = identity(args.genus, args.order)
    coefficients = [
        {"w": w, "lhs": str(check.lhs.coefficient(w)), "rhs": str(check.rhs.coefficient(w))}
        for w in range(1, args.order + 1)
    ]
    payload = {
        "identity": args.identity,
        "genus": args.genus,
        "order": args.order,
        "equal": check.equal,
        "coefficients": coefficients,
    }
    _emit(args, [payload], _series_text)
    return EXIT_OK if check.equal else EXIT_DISAGREE


def _series_text(record: dict) -> str:
    return "\n".join([
        f"identity {record['identity']}  genus {record['genus']}  order {record['order']}",
        "w lhs rhs",
        *(f"{row['w']} {row['lhs']} {row['rhs']}" for row in record["coefficients"]),
        f"verdict: {'PASS' if record['equal'] else 'FAIL'}",
    ])


def _parse_integers(text: str, malformed: str, empty: str, ranges: bool = False) -> range | list[int]:
    """The ``_INTEGER`` items of a comma-separated list, empty ones skipped, or LO..HI when ranges is set."""
    bounds = re.fullmatch(rf"({_INTEGER})\.\.({_INTEGER})", text) if ranges else None
    parts = [part for part in text.split(",") if part]
    if bounds:
        values = range(int(bounds[1]), int(bounds[2]) + 1)
    elif all(re.fullmatch(_INTEGER, part) for part in parts):
        values = [int(part) for part in parts]
    else:
        raise ValueError(malformed)
    if not values:
        raise ValueError(empty)
    return values


def _sweep_degrees(args) -> tuple[range | list[int], int]:
    """The degrees in sweep order, and the largest (0 if none); a --w-max range is never listed."""
    if args.w_list is None:
        if args.w_max < 0:
            raise ValueError(f"--w-max must be >= 0, got {args.w_max}")
        return range(1, args.w_max + 1), args.w_max
    ws = _parse_integers(
        args.w_list,
        f"--w-list takes a comma-separated list of degrees, e.g. 1,3,7 or 5; got {args.w_list!r}",
        "empty degree list",
    )
    for w in ws:
        if w < 1:
            raise ValueError(f"sweep degrees must be >= 1, got {w}")
    return ws, max(ws)


def _sweep(args):
    """Yield the record of each grid point as it is computed, then the summary.

    The query at the corner (largest w, smallest g) checks the whole grid, even
    an empty one: r, d, a ignore the point, w has only an upper bound, g only g >= 2.
    """
    strict = not args.permissive
    genera = _parse_integers(
        args.g,
        f"--g takes LO..HI or a comma-separated list of genera, e.g. 2..5, 2,4 or 3; got {args.g!r}",
        "empty genus range",
        ranges=True,
    )
    ws, w_largest = _sweep_degrees(args)
    g_least = genera[0] if isinstance(genera, range) else min(genera)  # min() would walk a range
    InvariantQuery(r=args.rank, d=args.deg_d, a=args.deg_a, w=w_largest, g=g_least)
    total = agree = conjectural = 0
    for g in genera:
        for w in ws:
            query = InvariantQuery(r=args.rank, d=args.deg_d, a=args.deg_a, w=w, g=g)
            closed = qm_elliptic(query, route=ROUTE_CLOSED, strict=strict)
            oracle = qm_elliptic(query, route=ROUTE_ORACLE, strict=strict)
            point_agree = _agree(closed, oracle)
            total += 1
            agree += point_agree
            conjectural += oracle.conjectural
            yield {
                "query": {"r": query.r, "d": query.d, "a": query.a, "w": w, "g": g},
                "closed": str(closed.value_t),
                "oracle": str(oracle.value_t),
                "agree": point_agree,
                "conjectural": oracle.conjectural,
            }
    yield {"summary": {"total": total, "agree": agree, "conjectural": conjectural}}


def _sweep_text(record: dict) -> str:
    if "summary" in record:
        summary = record["summary"]
        text = f"{summary['agree']}/{summary['total']} agree"
        return text + (f", {summary['conjectural']} conjectural" if summary["conjectural"] else "")
    query = record["query"]
    verdict = ("agree" if record["agree"] else "DISAGREE") + (" conjectural" if record["conjectural"] else "")
    return f"g={query['g']} w={query['w']} closed={record['closed']} oracle={record['oracle']} {verdict}"


def _cmd_sweep(args) -> int:
    summary = _emit(args, _sweep(args), _sweep_text)["summary"]
    return EXIT_OK if summary["agree"] == summary["total"] else EXIT_DISAGREE


def _cmd_selfcheck(_args) -> int:
    # imported here, not at the top, so that no other subcommand pays for it
    from .selfcheck import run_selfcheck
    results = run_selfcheck()
    failures = 0
    for name, ok, detail in results:
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}  {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else 1


def _add_query_flags(parser, include_genus: bool = True) -> None:
    parser.add_argument("-r", "--rank", type=_integer, required=True, help="rank (>= 2)")
    parser.add_argument("-d", "--deg-d", type=_integer, required=True, help="degree on the base curve")
    parser.add_argument("-a", "--deg-a", type=_integer, required=True, help="degree on the elliptic curve, in [0, rank)")
    if include_genus:
        parser.add_argument("-g", "--genus", type=_integer, required=True, help="genus of the base curve (>= 2)")


def _add_mode_flags(parser) -> None:
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_false", dest="permissive", default=False, help="reject queries outside the proven set (default)")
    mode.add_argument("--permissive", action="store_true", help="evaluate queries outside the proven set and flag the output conjectural")


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table", help="output format (identical data either way)")
    parser.add_argument("--out", help="also write the JSON payload to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qminv", description="Exact quasimap / Vafa-Witten invariants of Higgs-bundle moduli")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="evaluate one invariant")
    _add_query_flags(inv)
    inv.add_argument("-w", "--degree-w", type=_integer, required=True, help="quasimap degree (>= 0)")
    inv.add_argument("--route", choices=("closed", "oracle", "both"), default="both", help="evaluation route (default: both, with agreement check)")
    inv.add_argument("--side", choices=("elliptic", "moduli"), default="elliptic", help="report the elliptic-side value or the moduli-side value (r^(2g) times larger)")
    inv.add_argument("--decimal", action="store_true", help="add a clearly marked decimal approximation")
    inv.add_argument("--raw", action="store_true", help="also print the raw t-linear form")
    _add_mode_flags(inv)
    _add_output_flags(inv)

    ser = sub.add_parser("series", help="verify a generating-series identity")
    ser.add_argument("--identity", choices=("A", "B"), required=True, help="A: odd-degree difference identity; B: even-degree sum identity")
    ser.add_argument("--genus", type=_integer, required=True)
    ser.add_argument("--order", type=_integer, default=DEFAULT_SERIES_ORDER, help=f"truncation order (default: {DEFAULT_SERIES_ORDER})")
    _add_output_flags(ser)

    swp = sub.add_parser("sweep", help="compare oracle and closed form over a grid")
    _add_query_flags(swp, include_genus=False)
    degrees = swp.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--w-max", type=_integer, help="sweep w = 1..w-max")
    degrees.add_argument("--w-list", help="comma-separated list of degrees")
    swp.add_argument("--g", required=True, help="genus range, e.g. 2..5 or 2,4 or 3")
    _add_mode_flags(swp)
    _add_output_flags(swp)

    sub.add_parser("selfcheck", help="run the built-in property suites")
    return parser


def main(argv=None) -> int:
    # exact values may pass CPython's 4300-digit limit on int-to-str
    # conversion; the limit does not exist before Python 3.10.7
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK  # argparse: 0 after --help, 2 on a usage error
    handlers = {"invariant": _cmd_invariant, "series": _cmd_series, "sweep": _cmd_sweep, "selfcheck": _cmd_selfcheck}
    try:
        return handlers[args.command](args)
    except UnsupportedQueryError as exc:
        print(f"unsupported query: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, OverflowError):
        # a size such as --order 2**62 fails Python's own length check
        print("invalid input: a value is too large to compute with", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except BrokenPipeError:
        # stdout was closed early: silence the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
