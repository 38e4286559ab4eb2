"""Command-line entry points: normalization, equality checking, and suite runs.

Exit codes: 0 on success, 1 when an identity check or equality fails, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import lru_cache

from .checks import check_zero
from .expr import SessionConfig, difference, evaluate_source, parse_index_set
from .minors import minor
from .verify import FitError, FIT_FAMILIES, fit_exponents, run_suite, verify_frozen_table

USAGE_ERROR, CHECK_FAILURE = 2, 1


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--m", type=int, default=None, help="row count of the generator grid")
    parser.add_argument("--n", type=int, default=None, help="column count of the generator grid")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")


def _config(args) -> SessionConfig:
    m, n = args.m, args.n
    if m is None and n is None:
        raise ValueError("shape required: pass --m/--n")
    m = m if m is not None else n
    n = n if n is not None else m
    return SessionConfig(m=m, n=n)


def _write_json(payload) -> None:
    """Stream one JSON document, then a newline, to the stdout of the moment
    (a caller may have redirected it), without holding its text: the
    encoder's chunks go out joined in batches, so an unbuffered stdout
    (PYTHONUNBUFFERED) makes one write per batch, not one per chunk."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _emit(args, payload: dict, text: str) -> None:
    if args.fmt == "json":
        _write_json(payload)
    else:
        print(text)


def _cmd_normalize(args) -> int:
    config = _config(args)
    value = evaluate_source(args.expr, config)
    _emit(args, {"input": args.expr, "normal_form": str(value)}, str(value))
    return 0


def _cmd_equal(args) -> int:
    config = _config(args)
    check = check_zero("equal", difference(args.lhs, args.rhs, config))
    payload = {"lhs": args.lhs, "rhs": args.rhs, "equal": check.ok}
    if not check.ok:
        payload["witness"] = check.witness
        _emit(args, payload, f"not equal\nwitness: {check.witness}")
        return CHECK_FAILURE
    _emit(args, payload, "equal")
    return 0


def _cmd_det(args) -> int:
    if args.n is None and args.m is None:
        raise ValueError("det needs --n")
    config = _config(args)
    if config.m != config.n:
        raise ValueError("det needs a square shape")
    value = evaluate_source(f"Dq@{config.n}", config)
    _emit(args, {"n": config.n, "det": str(value)}, str(value))
    return 0


def _cmd_minor(args) -> int:
    config = _config(args)
    rows = parse_index_set(args.rows)
    cols = parse_index_set(args.cols)
    value = minor(config.shape, rows, cols)
    _emit(args, {"rows": list(rows), "cols": list(cols), "minor": str(value)}, str(value))
    return 0


def _cmd_suite(args) -> int:
    report = run_suite(args.name, m=args.m, n=args.n, t=args.t)
    if args.fmt == "json":
        _write_json(report.as_dict())
    else:
        print(report.summary())
        for check in report.checks:
            if not check.ok:
                print(f"  FAIL {check.name}")
                if check.witness:
                    print(f"       witness: {check.witness}")
    return 0 if report.passed else CHECK_FAILURE


def _cmd_fit(args) -> int:
    try:
        if args.family:
            kwargs = {k: v for k, v in (("m", args.m), ("n", args.n), ("t", args.t))
                      if v is not None}
            fits = [fit_exponents(args.family, **kwargs)]
        else:
            fits = verify_frozen_table()
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    if args.fmt == "json":
        _write_json([f.as_dict() for f in fits])
    else:
        for f in fits:
            law = " + ".join(
                (f"{c}*{v}" if v != "1" else str(c)) for v, c in f.law.items() if c
            ) or "0"
            print(f"{f.family}: law {law} over {len(f.instances)} instances, "
                  f"{'matches' if f.matches_frozen else 'DIVERGES FROM'} frozen table")
    return 0


def _cmd_jordan(args) -> int:
    if args.n is None and args.m is None:
        args.n = 3
    report = run_suite("jordan-obstruction", m=args.m, n=args.n, t=None)
    if args.fmt == "json":
        _write_json(report.as_dict())
    else:
        print(report.summary())
        for check in report.checks:
            mark = "ok  " if check.ok else "FAIL"
            print(f"  {mark} {check.name}")
    return 0 if report.passed else CHECK_FAILURE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The qmv argument parser; built once per process and shared by every call
    to ``main``, since parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="qmv",
        description="Exact PBW normal forms and identity verification for quantum matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical form of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    _add_common(p)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("det", help="print the quantum determinant")
    _add_common(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("minor", help="print a quantum minor, e.g. qmv minor '{1,2}' '{2,3}'")
    p.add_argument("rows")
    p.add_argument("cols")
    _add_common(p)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("suite", help="run a named identity suite")
    p.add_argument("name")
    _add_common(p)
    p.add_argument("--t", type=int, default=None, help="minor size, for suites that take one")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("fit-exponents",
                       help="fit unspecified q-power exponents and compare to the frozen table")
    p.add_argument("family", nargs="?", choices=FIT_FAMILIES, default=None)
    _add_common(p)
    p.add_argument("--t", type=int, default=None, help="size of the identity instances to fit")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("jordan", help="run the determinant-splitting obstruction computation")
    _add_common(p)
    p.set_defaults(func=_cmd_jordan)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except ValueError as exc:  # parse errors (ExprError) among them
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
