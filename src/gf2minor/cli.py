"""Command-line front end for verification, minor testing, and inspection.

Exit codes: 0 success / all checks pass; 1 a verification or minor question
answered "no"; 2 usage, parse, or capacity errors.  Batch-oriented and
non-interactive by design.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog, certify
from .audit import verify_graph, verify_witness
from .errors import InputError, MatroidError
from .matroid import BinaryMatroid, Graph, MinorOp, contract, delete, mask_to_labels
from .minors import (
    check_graphic_cocircuits,
    cocircuit_masks,
    find_minor_witness,
    graphic_certificate,
    is_graphic,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _read_text(path: Path) -> str:
    """A UTF-8 input file's text; any other encoding is an error naming it."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_matroid(arg: str) -> BinaryMatroid:
    """Catalog name or matrix file path; a real file wins over a name."""
    path = Path(arg)
    if path.is_file():
        try:
            catalog.canonical_name(arg)
        except InputError:
            pass
        else:
            print(
                f"warning: {arg!r} is both a file and a catalog name; "
                "using the file",
                file=sys.stderr,
            )
        return catalog.parse_matrix_file(_read_text(path))
    return catalog.get_named(arg)


def _split_labels(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _set_str(labels) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def _audit(m: BinaryMatroid, cert, deleted: frozenset[str] = frozenset()) -> bool:
    """Whether ``audit`` accepts ``cert``, a graph of m \\ deleted or an
    excluded minor of m and its witness; a rejection is reported on stderr."""
    if isinstance(cert, Graph):
        audited = verify_graph(m.delete_all(deleted), cert)
    else:
        audited = verify_witness(m, catalog.get_named(cert[0]), cert[1])
    if not audited:
        print("error: certificate REJECTED by the independent check", file=sys.stderr)
    return audited


# -- subcommands ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.cert:
        cases = certify.load_cases(_read_text(Path(args.cert)))
    else:
        cases = certify.builtin_cases()
    if args.case:
        known = {c.name: c for c in cases}
        missing = [n for n in args.case if n not in known]
        if missing:
            raise InputError(f"unknown case name(s): {', '.join(missing)}")
        cases = tuple(known[n] for n in args.case)
    reports, summary = certify.replay_all(cases, jobs=args.jobs)

    if args.json:
        for r in reports:
            print(json.dumps(r.to_dict(), sort_keys=True))
    else:
        print(f"{'RESULT':<6} {'CASE':<8} {'VERDICT':<8} {'EXPECTED':<8} "
              f"{'WITNESS':<8} {'CIRCUIT':<7} {'TIME':>8}")
        for r in reports:
            if r.error is not None:
                print(f"{'FAIL':<6} {r.case_name:<8} error: {r.error}")
                continue
            witness = "verified" if r.witness_verified else (
                "none" if r.witness is None else "REJECTED"
            )
            print(
                f"{'PASS' if r.ok else 'FAIL':<6} {r.case_name:<8} "
                f"{r.verdict or 'none':<8} {r.expected:<8} {witness:<8} "
                f"{'yes' if r.opset_is_circuit else 'no':<7} "
                f"{r.elapsed_s:>7.2f}s"
            )
        failed = f" failed: {', '.join(summary.failed_cases)}" if summary.failed_cases else ""
        print(
            f"{summary.matched}/{summary.total} matched "
            f"in {summary.elapsed_s:.2f}s{failed}"
        )
    return EXIT_OK if summary.all_ok else EXIT_FAIL


def cmd_minor(args: argparse.Namespace) -> int:
    host = _load_matroid(args.matroid)
    target = _load_matroid(args.target)
    ops: list[MinorOp] = [contract(e) for e in _split_labels(args.contract)]
    ops += [delete(e) for e in _split_labels(args.delete)]
    host = host.apply_ops(ops)
    w = find_minor_witness(host, target)
    if w is None:
        print(f"no minor: {args.target} not contained in {args.matroid}"
              + (" (after ops)" if ops else ""))
        return EXIT_FAIL
    audited = verify_witness(host, target, w)
    print(
        f"minor found: contract {_set_str(w.contract_set)}, "
        f"delete {_set_str(w.delete_set)} "
        f"(witness {'verified' if audited else 'REJECTED'})"
    )
    if args.witness:
        print(json.dumps(w.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK if audited else EXIT_ERROR


def cmd_graphic(args: argparse.Namespace) -> int:
    m = _load_matroid(args.matroid)
    if not args.certificate:
        verdict = is_graphic(m)
        print(f"graphic: {'yes' if verdict else 'no'}")
        return EXIT_OK if verdict else EXIT_FAIL
    cert = graphic_certificate(m)
    verdict = isinstance(cert, Graph)
    print(f"graphic: {'yes' if verdict else 'no'}")
    if verdict:
        print(f"vertices {cert.n_vertices}")
        for u, v, label in sorted(cert.edges):
            print(f"{u} {v} {label}")
    else:
        print(f"excluded minor: {cert[0]}")
        print(json.dumps(cert[1].as_dict(), indent=2, sort_keys=True))
    if not _audit(m, cert):
        return EXIT_ERROR
    return EXIT_OK if verdict else EXIT_FAIL


def cmd_cocircuits(args: argparse.Namespace) -> int:
    m = _load_matroid(args.matroid)
    if not args.check_graphic:
        elems = m.elements()
        for y in cocircuit_masks(m):
            print(_set_str(mask_to_labels(y, elems)))
        return EXIT_OK
    report = check_graphic_cocircuits(m)
    for check in report.checks:
        flag = "graphic" if check.graphic else "NOT graphic"
        print(f"{_set_str(check.cocircuit)}: deletion {flag}")
    print(f"all cocircuits graphic: {'yes' if report.all_graphic else 'no'}")
    if not all([_audit(m, c.certificate, c.cocircuit) for c in report.checks]):
        return EXIT_ERROR
    return EXIT_OK if report.all_graphic else EXIT_FAIL


def cmd_info(args: argparse.Namespace) -> int:
    m = _load_matroid(args.matroid)
    circuits = m.circuits()
    print(f"elements: {m.size}")
    print(f"rank: {m.full_rank}")
    print(f"corank: {m.corank}")
    print(f"loops: {len(m.loops())}")
    print(f"coloops: {len(m.coloops())}")
    print(f"circuits: {len(circuits)}")
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    m = _load_matroid(args.matroid)
    name = "dual"
    try:
        name = catalog.canonical_name(args.matroid) + "-dual"
    except InputError:
        pass
    text = catalog.write_matrix_file(m.dual(), name=name.replace(" ", ""))
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2minor",
        description="Binary matroid minor search and certificate replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="replay built-in or external certificates")
    p.add_argument("--case", action="append", metavar="NAME",
                   help="replay only this case (repeatable)")
    p.add_argument("--cert", metavar="FILE", help="JSON certificate file")
    # A string default goes through type=int too, so a bad $MATROID_JOBS
    # is a usage error, while an explicit --jobs wins over it.
    p.add_argument("--jobs", type=int, metavar="N",
                   default=os.environ.get("MATROID_JOBS", "1"),
                   help="parallel workers (default: $MATROID_JOBS or 1)")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per case instead of the table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minor", help="test minor containment")
    p.add_argument("--matroid", required=True, help="catalog name or matrix file")
    p.add_argument("--target", required=True, help="catalog name or matrix file")
    p.add_argument("--contract", metavar="E1,E2,...",
                   help="contract these elements first")
    p.add_argument("--delete", metavar="E1,E2,...",
                   help="delete these elements first (after contractions)")
    p.add_argument("--witness", action="store_true", help="print the witness")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("graphic", help="graphicness test")
    p.add_argument("--matroid", required=True)
    p.add_argument("--certificate", action="store_true",
                   help="print the graph, or the excluded minor and witness")
    p.set_defaults(func=cmd_graphic)

    p = sub.add_parser("cocircuits", help="list cocircuits")
    p.add_argument("--matroid", required=True)
    p.add_argument("--check-graphic", action="store_true",
                   help="also test each deletion for graphicness")
    p.set_defaults(func=cmd_cocircuits)

    p = sub.add_parser("info", help="rank, size, loops, coloops, circuit count")
    p.add_argument("--matroid", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("dual", help="write the dual in matrix file format")
    p.add_argument("--matroid", required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_dual)

    return parser


def execute_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed usage/help already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MatroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(execute_command(sys.argv[1:]))
