"""Certificate data model and the replay engine for the built-in case library.

A certificate names a base matroid, an op sequence, a list of candidate
targets, and the expected verdict.  Replaying it applies the ops, searches
the targets in order, independently re-verifies any witness found, and also
audits (informationally) whether the op set is a circuit of the base.  The
29 built-in certificates are stored as their original signed-index command
strings, kept as provenance and parsed into ops on element labels, which are
stable under pivoting.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

from . import catalog
from .audit import MinorWitness, verify_witness
from .errors import InputError, MatroidError
from .matroid import CONTRACT, BinaryMatroid, MinorOp, OpTrace
from .minors import find_minor_witness

DIRECT = "direct"  # contractions in a graphic base, targets M(K5)/M(K33)
DUAL = "dual"      # deletions, targets M*(K5)/M*(K33)


@dataclass(frozen=True)
class CertificateCase:
    """One replayable claim: base, ops, candidate targets, expected verdict."""

    name: str
    base: str
    ops: tuple[MinorOp, ...]
    targets: tuple[str, ...]
    expected: str
    claim_kind: str = DIRECT
    provenance: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("certificate case needs a name")
        if not self.ops:
            raise InputError(f"case {self.name}: op list is empty")
        if self.expected not in self.targets:
            raise InputError(
                f"case {self.name}: expected target {self.expected!r} "
                f"is not among targets {list(self.targets)}"
            )
        if self.claim_kind not in (DIRECT, DUAL):
            raise InputError(f"case {self.name}: bad claim kind {self.claim_kind!r}")

    def resolve_base(self) -> BinaryMatroid:
        """Catalog name, or inline matrix-format text (detected by newlines)."""
        if "\n" in self.base:
            return catalog.parse_matrix_file(self.base)
        return catalog.get_named(self.base)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay; ``error`` is set only when the case blew up."""

    case_name: str
    expected: str
    verdict: str | None
    matched_expected: bool
    witness: MinorWitness | None
    witness_verified: bool
    opset_is_circuit: bool
    op_trace: tuple[OpTrace, ...]
    elapsed_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Matched, and any witness survived the independent audit."""
        if self.error is not None or not self.matched_expected:
            return False
        return self.verdict is None or self.witness_verified

    def to_dict(self) -> dict:
        return {
            "case": self.case_name,
            "expected": self.expected,
            "verdict": self.verdict,
            "matched_expected": self.matched_expected,
            "witness": self.witness.as_dict() if self.witness else None,
            "witness_verified": self.witness_verified,
            "opset_is_circuit": self.opset_is_circuit,
            "op_trace": [
                {"op": t.op.kind, "element": t.op.element, "route": t.route}
                for t in self.op_trace
            ],
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
        }


@dataclass(frozen=True)
class ReplaySummary:
    total: int
    matched: int
    failed_cases: tuple[str, ...]
    elapsed_s: float

    @property
    def all_ok(self) -> bool:
        return not self.failed_cases


# -- built-in certificates ---------------------------------------------------------

# (name, expected target, signed-index command); the command is the op list.
_BUILTIN_TABLE = (
    ("g1", "M(K5)", "!contract 1;!contract -1;!contract -3"),
    ("g2", "M(K33)", "!contract 4;!contract 5;!contract -9"),
    ("g3", "M(K5)", "!contract 1;!contract 2;!contract 3;!contract -2"),
    ("g4", "M(K33)", "!contract 4;!contract 5;!contract 6;!contract -6"),
    ("g5", "M(K33)", "!contract 7;!contract 8;!contract 9;!contract -8"),
    ("g6", "M(K33)", "!contract 6;!contract 7;!contract 8;!contract -7"),
    ("g7", "M(K5)", "!contract 1;!contract 2;!contract -5"),
    ("g8", "M(K5)", "!contract 4;!contract -5;!contract -6"),
    ("g9", "M(K33)", "!contract 1;!contract 2;!contract 3;!contract -2"),
    ("g10", "M(K5)", "!contract 1;!contract 6;!contract -1;!contract -3"),
    ("g11", "M(K33)", "!contract 3;!contract 6;!contract -5;!contract -7"),
    ("g12", "M(K33)", "!contract 8;!contract -1;!contract -2;!contract -3"),
    ("g13", "M(K33)", "!contract 2;!contract 6;!contract -6;!contract -9"),
    ("g14", "M(K33)", "!contract 7;!contract 8;!contract -2;!contract -5"),
    ("g15", "M(K33)", "!contract 7;!contract 8;!contract 9;!contract -3"),
    ("g16", "M(K33)", "!contract 6;!contract 7;!contract 9;!contract -5"),
    ("g18", "M(K33)", "!contract 4;!contract 7;!contract -4;!contract -5"),
    ("g20", "M(K33)", "!contract 1;!contract 2;!contract -7;!contract -8"),
    ("g21", "M(K5)", "!contract 4;!contract -2;!contract -5"),
    ("g22", "M(K5)", "!contract 5;!contract 6;!contract 7;!contract -6"),
    ("g23", "M(K33)", "!contract 1;!contract 8;!contract -3;!contract -4"),
    ("g24", "M(K5)", "!contract 1;!contract -1;!contract -9"),
    ("g25", "M(K5)", "!contract 5;!contract -10;!contract -12"),
    ("g26", "M(K5)", "!contract 5;!contract 6;!contract 7;!contract -4"),
    ("g27", "M(K5)", "!contract 1;!contract 2;!contract 3;!contract 4;!contract -2"),
    ("g28", "M(K5)",
     "!contract 1;!contract 2;!contract 3;!contract 4;!contract 5;!contract -2"),
    ("g29", "M(K33)",
     "!contract 1;!contract 2;!contract 3;!contract 4;!contract 5;!contract -2"),
    ("r15", "M*(K33)", "!delete 6;!delete 7;!delete -8"),
    ("r16", "M*(K33)", "!delete 8;!delete -1;!delete -3;!delete -8"),
)


def builtin_cases() -> tuple[CertificateCase, ...]:
    out = []
    for name, expected, command in _BUILTIN_TABLE:
        ops = parse_signed_index_command(command)
        direct = ops[0].kind == CONTRACT
        out.append(
            CertificateCase(
                name=name,
                base=name,
                ops=ops,
                targets=("M(K5)", "M(K33)") if direct else ("M*(K5)", "M*(K33)"),
                expected=expected,
                claim_kind=DIRECT if direct else DUAL,
                provenance=command,
            )
        )
    return tuple(out)


def parse_signed_index_command(command: str) -> tuple[MinorOp, ...]:
    """Ops from a '!contract 4;!delete -8' style program.

    Positive indices are basis (r) elements, negative are cobasis (s)
    elements, both referring to the original labels.
    """
    ops = []
    for part in command.split(";"):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"!(contract|delete)\s+(-?\d+)", part)
        if m is None:
            raise InputError(f"bad command fragment {part!r}")
        idx = int(m.group(2))
        label = f"s{-idx}" if idx < 0 else f"r{idx}"
        ops.append(MinorOp(m.group(1), label))
    return tuple(ops)


# -- replay ---------------------------------------------------------------------


def replay_case(case: CertificateCase) -> ReplayReport:
    """Apply the ops, search the targets in order, audit the result."""
    start = perf_counter()
    try:
        base = case.resolve_base()
        trace: list[OpTrace] = []
        host = base.apply_ops(case.ops, trace=trace)
        opset_is_circuit = base.is_circuit({op.element for op in case.ops})
        verdict: str | None = None
        witness: MinorWitness | None = None
        for target_name in case.targets:
            w = find_minor_witness(host, catalog.get_named(target_name))
            if w is not None:
                verdict, witness = target_name, w
                break
        verified = (
            verify_witness(host, catalog.get_named(verdict), witness)
            if witness is not None
            else False
        )
    except MatroidError as exc:
        raise InputError(f"case {case.name}: {exc}") from exc
    return ReplayReport(
        case_name=case.name,
        expected=case.expected,
        verdict=verdict,
        matched_expected=verdict == case.expected,
        witness=witness,
        witness_verified=verified,
        opset_is_circuit=opset_is_circuit,
        op_trace=tuple(trace),
        elapsed_s=perf_counter() - start,
    )


def _replay_or_error(case: CertificateCase) -> ReplayReport:
    try:
        return replay_case(case)
    except MatroidError as exc:
        return ReplayReport(
            case_name=case.name,
            expected=case.expected,
            verdict=None,
            matched_expected=False,
            witness=None,
            witness_verified=False,
            opset_is_circuit=False,
            op_trace=(),
            elapsed_s=0.0,
            error=str(exc),
        )


def case_sort_key(name: str) -> tuple:
    m = re.match(r"([A-Za-z]*)(\d*)", name)
    return (m.group(1), int(m.group(2) or 0), name)


def replay_all(
    cases: Iterable[CertificateCase] | None = None,
    jobs: int = 1,
) -> tuple[list[ReplayReport], ReplaySummary]:
    """Replay every case (the 29 built-ins by default), never aborting.

    Cases are independent; ``jobs`` > 1 fans out across at most
    min(jobs, number of cases, CPU count) processes, and the replay is
    serial when that is 1.  Reports come back sorted by case name regardless
    of worker scheduling, and verdicts do not depend on the job count.
    """
    start = perf_counter()
    case_list = list(builtin_cases() if cases is None else cases)
    workers = min(jobs, len(case_list), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool costs about 2 MB to import, and
        # only a fanned-out replay needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_replay_or_error, case_list))
    else:
        reports = [_replay_or_error(c) for c in case_list]
    reports.sort(key=lambda r: case_sort_key(r.case_name))
    failed = tuple(r.case_name for r in reports if not r.ok)
    summary = ReplaySummary(
        total=len(reports),
        matched=sum(r.matched_expected for r in reports),
        failed_cases=failed,
        elapsed_s=perf_counter() - start,
    )
    return reports, summary


# -- certificate files ----------------------------------------------------------


def load_cases(text: str) -> tuple[CertificateCase, ...]:
    """Parse a JSON certificate file (a list of case objects)."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise InputError(f"certificate file is not readable JSON: {exc}") from exc
    if isinstance(data, dict) and "cases" in data:
        data = data["cases"]
    if not isinstance(data, list):
        raise InputError("certificate file must hold a list of case objects")
    cases = []
    for i, obj in enumerate(data):
        where = f"case #{i + 1}"
        if not isinstance(obj, dict):
            raise InputError(f"{where}: not an object")
        try:
            name = obj["name"]
            base = obj["base"]
            ops = obj["ops"]
            targets = obj["targets"]
            expected = obj["expected"]
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc}") from exc
        for field, value in (("name", name), ("base", base),
                             ("expected", expected)):
            if not isinstance(value, str) or not value:
                raise InputError(f"{where}: {field!r} must be a non-empty string")
        if not isinstance(targets, list) or not all(
            isinstance(t, str) for t in targets
        ):
            raise InputError(f"{where}: 'targets' must be a list of strings")
        targets = [catalog.canonical_name(t) for t in targets]
        expected = catalog.canonical_name(expected)
        if not isinstance(ops, list):
            raise InputError(f"{where}: 'ops' must be a list")
        parsed_ops = []
        for op in ops:
            try:
                op_kind, element = op["op"], op["element"]
            except (TypeError, KeyError) as exc:
                raise InputError(f"{where}: bad op entry {op!r}") from exc
            if not isinstance(element, str):
                raise InputError(
                    f"{where}: op element {element!r} must be a string"
                )
            parsed_ops.append(MinorOp(op_kind, element))
        kind = obj.get(
            "claim_kind", DUAL if expected.startswith("M*") else DIRECT
        )
        cases.append(
            CertificateCase(
                name=name,
                base=base,
                ops=tuple(parsed_ops),
                targets=tuple(targets),
                expected=expected,
                claim_kind=kind,
                provenance=obj.get("provenance", ""),
            )
        )
    return tuple(cases)
