"""The benchmark's three workloads: their inputs, one query each, and its check.

replay     certify.replay_all(jobs=1), one built-in certificate per query
graphic    minors.is_graphic over 16 fixed catalog entries
minor_mix  find_minor_witness, then verify_witness on a hit, over a
           synthetic bank of random host/target pairs

Every workload is a fixed list of queries; the run seed shuffles their
order.  ``run`` is the only part that is timed; ``check`` compares its
result with the expected answer afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

from gf2minor import catalog, certify, minors
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import CONTRACT, DELETE, BinaryMatroid, MinorOp

# The stored g8 block has no M(K5)/M(K33) minor at all (see the note in
# src/gf2minor/data/g8.mat), so its replay answers None where the
# certificate says M(K5).  It stays in every pass and counts in fail_share;
# a replay outcome that differs from both is a real failure.
KNOWN_RED = {"g8": None}

GRAPHIC_ENTRIES = {
    "g7": True, "g10": True, "g12": True, "g18": True, "g21": True,
    "g24": True, "g9": True, "g6": True, "r15": False, "r16": False,
    "M(K5)": True, "M(K33)": True, "M*(K5)": False, "M*(K33)": False,
    "F7": False, "F7*": False,
}

# minor_mix bank.  Per-query cost has a heavy tail (a few queries take
# seconds), so a bank drawn afresh for every seed moves queries_per_s by a
# third between seeds; the bank is therefore fixed and the seed only orders
# it.
BANK_SEED = 1
BANK_SIZE = 100
HOST_SIZES = (12, 16)
PLANTED_SIZES = (6, 9)
INDEPENDENT_SIZES = (5, 8)


@dataclass(frozen=True)
class Outcome:
    """Checked result of one query.

    ``answer`` is canonical text of what the program returned (for digests
    and pass-to-pass comparison); ``ok`` is False when the query raised or
    its answer is not the expected one.
    """

    key: str
    answer: str
    ok: bool


def _witness_text(w: minors.MinorWitness | None) -> str:
    return "none" if w is None else json.dumps(w.as_dict(), sort_keys=True)


class Replay:
    name = "replay"

    def __init__(self) -> None:
        self._audited: dict[tuple[str, str], bool] = {}

    def resolve(self) -> None:
        for case in certify.builtin_cases():
            case.resolve_base()
            for target in case.targets:
                catalog.get_named(target)

    def queries(self, seed: int) -> list[certify.CertificateCase]:
        cases = list(certify.builtin_cases())
        Random(seed).shuffle(cases)
        return cases

    def run(self, case: certify.CertificateCase) -> certify.ReplayReport:
        reports, _ = certify.replay_all((case,), jobs=1)
        return reports[0]

    def check(self, case, report: certify.ReplayReport) -> Outcome:
        answer = f"{report.verdict}:{_witness_text(report.witness)}"
        if report.error is not None:
            return Outcome(case.name, f"error:{report.error}", False)
        ok = report.ok and self._audit(case, report)
        return Outcome(case.name, answer, ok)

    def _audit(self, case, report: certify.ReplayReport) -> bool:
        """Re-check the witness outside the replay engine, once per witness."""
        if report.witness is None:
            return True
        key = (case.name, _witness_text(report.witness))
        if key not in self._audited:
            host = case.resolve_base().apply_ops(case.ops)
            target = catalog.get_named(report.verdict)
            self._audited[key] = minors.verify_witness(host, target, report.witness)
        return self._audited[key]

    @staticmethod
    def explained(outcome: Outcome | None) -> bool:
        """A failed replay that is exactly the documented data defect."""
        return (
            outcome is not None
            and outcome.key in KNOWN_RED
            and outcome.answer == f"{KNOWN_RED[outcome.key]}:none"
        )


@dataclass(frozen=True)
class Entry:
    name: str
    matroid: BinaryMatroid


class Graphic:
    name = "graphic"

    def resolve(self) -> None:
        for name in (*GRAPHIC_ENTRIES, *minors.GRAPHICNESS_EXCLUDED):
            catalog.get_named(name)

    def queries(self, seed: int) -> list[Entry]:
        names = list(GRAPHIC_ENTRIES)
        Random(seed).shuffle(names)
        return [Entry(n, catalog.get_named(n)) for n in names]

    def run(self, entry: Entry) -> bool:
        return minors.is_graphic(entry.matroid)

    def check(self, entry: Entry, verdict: bool) -> Outcome:
        return Outcome(entry.name, str(verdict), verdict == GRAPHIC_ENTRIES[entry.name])

    @staticmethod
    def explained(outcome: Outcome | None) -> bool:
        return False


@dataclass(frozen=True)
class MixQuery:
    index: int
    host: BinaryMatroid
    target: BinaryMatroid
    planted: bool

    @property
    def name(self) -> str:
        return str(self.index)


def random_matroid(rng: Random, size: int, prefix: str) -> BinaryMatroid:
    """Random standard-form matroid on ``size`` elements, rank uniform in 0..size."""
    k = rng.randint(0, size)
    c = size - k
    a = Gf2Matrix(k, c, tuple(rng.getrandbits(c) for _ in range(k)))
    labels = [f"{prefix}{i + 1}" for i in range(size)]
    return BinaryMatroid(tuple(labels[:k]), tuple(labels[k:]), a)


def relabeled(rng: Random, m: BinaryMatroid) -> BinaryMatroid:
    """The same matrix under fresh labels in shuffled order."""
    fresh = [f"t{i + 1}" for i in range(m.size)]
    rng.shuffle(fresh)
    k = m.a.n_rows
    return BinaryMatroid(tuple(fresh[:k]), tuple(fresh[k:]), m.a)


def minor_mix_bank(seed: int = BANK_SEED, size: int = BANK_SIZE) -> tuple[MixQuery, ...]:
    """Host/target pairs; every even index plants its target in its host.

    A planted target is the host after a random contract/delete sequence,
    relabeled, so it must be found.  An independent target is a random
    matroid of its own; either answer is possible.
    """
    rng = Random(seed)
    bank = []
    for i in range(size):
        host = random_matroid(rng, rng.randint(*HOST_SIZES), "h")
        planted = i % 2 == 0
        if planted:
            removed = rng.sample(host.elements(), host.size - rng.randint(*PLANTED_SIZES))
            ops = [MinorOp(rng.choice((CONTRACT, DELETE)), e) for e in removed]
            target = relabeled(rng, host.apply_ops(ops))
        else:
            target = random_matroid(rng, rng.randint(*INDEPENDENT_SIZES), "t")
        bank.append(MixQuery(i, host, target, planted))
    return tuple(bank)


class MinorMix:
    name = "minor_mix"

    def __init__(self) -> None:
        self._bank: tuple[MixQuery, ...] | None = None

    def resolve(self) -> None:
        pass  # no catalog entries; the bank is benchmark input, built per run

    def queries(self, seed: int) -> list[MixQuery]:
        if self._bank is None:
            self._bank = minor_mix_bank()
        order = list(self._bank)
        Random(seed).shuffle(order)
        return order

    def run(self, q: MixQuery):
        w = minors.find_minor_witness(q.host, q.target)
        return w, (w is not None and minors.verify_witness(q.host, q.target, w))

    def check(self, q: MixQuery, result) -> Outcome:
        w, verified = result
        ok = verified if w is not None else not q.planted
        return Outcome(q.name, _witness_text(w), ok)

    @staticmethod
    def explained(outcome: Outcome | None) -> bool:
        return False


WORKLOADS = {"replay": Replay, "graphic": Graphic, "minor_mix": MinorMix}
