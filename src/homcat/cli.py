"""Command-line front end: run verification suites, emit quivers and tables.

    homcat verify <id>|all [--prime P] [--seed S] [--cap N] [--out FILE]
    homcat emit <what> --algebra <preset> --out <path> --format <dot|json>

Reports written to disk are byte-deterministic for fixed flags (runtimes are
printed to the console only).
"""

from __future__ import annotations

import argparse
import json
import sys

from homcat.algebras import preset
from homcat.derived import tilting_check
from homcat.errors import HomcatError
from homcat.exercises import (
    Options,
    Report,
    _ext_table_rows,
    _tilting_modules,
    available_exercises,
    run_exercise,
)
from homcat.modules import ar_quiver, classify_indecomposables
from homcat.stable import stable_ar_quiver

EMIT_KINDS = ("ar-quiver", "stable-ar-quiver", "ext-table", "tilting-report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcat",
        description="exact homological algebra over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a numbered verification suite")
    verify.add_argument("exercise", nargs="?", default="list", help="suite id, or 'all'")
    verify.add_argument("--prime", type=int, default=None, help="field characteristic (suite default otherwise)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cap", type=int, default=12, help="resolution length cap")
    verify.add_argument("--window", type=int, nargs=2, default=(-6, 6), metavar=("LO", "HI"))
    verify.add_argument("--out", default=None, help="write the JSON report here")
    verify.add_argument("--list", action="store_true", help="list available suites")

    emit = sub.add_parser("emit", help="write a quiver or table to a file")
    emit.add_argument("what", choices=EMIT_KINDS)
    emit.add_argument("--algebra", required=True, help="preset name, e.g. lambda1 or truncpoly(3)")
    emit.add_argument("--out", required=True)
    emit.add_argument("--format", choices=("dot", "json"), default="dot")
    emit.add_argument("--prime", type=int, default=None)
    return parser


def _print_report(report: Report) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.exercise} (p={report.prime}, seed={report.seed}, {report.runtime:.2f}s)")
    for check in report.checks:
        mark = "ok " if check.passed else "FAIL"
        print(f"  {mark} {check.name}: expected {check.expected!r}, got {check.got!r}")


def _cmd_verify(args) -> int:
    if args.list or args.exercise == "list":
        for exercise_id, description in available_exercises():
            print(f"{exercise_id:14s} {description}")
        return 0
    options = Options(prime=args.prime, seed=args.seed, window=tuple(args.window), cap=args.cap)
    ids = [k for k, _ in available_exercises()] if args.exercise == "all" else [args.exercise]
    reports = []
    for exercise_id in ids:
        reports.append(run_exercise(exercise_id, options))
        _print_report(reports[-1])
    if args.out:
        payload = (
            reports[0].to_json()
            if len(reports) == 1
            else {"reports": [r.to_json() for r in reports], "pass": all(r.passed for r in reports)}
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def _ext_table_json(algebra_name: str, p: int) -> dict:
    alg = preset(algebra_name, p)
    mods = classify_indecomposables(alg)
    labels = ["m" + "".join(str(d) for d in m.dim_vector()) for m in mods]
    rows = [
        {"src": labels[i], "dst": labels[j], "degree": d, "dim": dim}
        for i, j, d, dim in _ext_table_rows(mods, 4, 12)
    ]
    return {"algebra": algebra_name, "prime": p, "rows": rows}


def _tilting_report_json(algebra_name: str, p: int) -> dict:
    module = _tilting_modules(preset("lambda1", p)).get(algebra_name)
    if module is None:
        raise ValueError("tilting reports target lambda2 or lambda3")
    report = tilting_check(module, preset(algebra_name, p))
    return {
        "algebra": algebra_name,
        "prime": p,
        "end_dim": report["end_dim"],
        "iso_found": report["iso_found"],
        "iso_side": report["iso_side"],
        "injective_on_shifts": report["injective_on_shifts"],
        "rows": report["table"],
    }


def _cmd_emit(args) -> int:
    kind = args.what
    if kind in ("ext-table", "tilting-report") and args.format != "json":
        raise ValueError(f"{kind} only supports --format json")
    p = args.prime if args.prime is not None else 101 if kind == "tilting-report" else 2
    if kind == "ar-quiver":
        quiver = ar_quiver(preset(args.algebra, p))
        payload = quiver.to_dot("ar_quiver") if args.format == "dot" else quiver.to_json()
    elif kind == "stable-ar-quiver":
        quiver = stable_ar_quiver(preset(args.algebra, p))
        payload = quiver.to_dot("stable_ar_quiver") if args.format == "dot" else quiver.to_json()
    elif kind == "ext-table":
        payload = _ext_table_json(args.algebra, p)
    else:
        payload = _tilting_report_json(args.algebra, p)
    with open(args.out, "w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    """Run one command; a refused input (ValueError or any HomcatError) prints
    its message to stderr and exits 2, a failed check exits 1."""
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_verify(args) if args.command == "verify" else _cmd_emit(args)
    except (ValueError, HomcatError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
