"""The certificate audit: its independence from the search, and its verdicts.

``audit`` may share no code with the search it checks.  The import and
attribute checks below turn that rule into a test, a corrupted circuit
kernel must leave the audit's answers unchanged, and ``verify_witness``
must agree with the dense brute-force oracle on seeded random witnesses and
with the basis-exchange rule it replaced on found and tampered ones.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path
from random import Random

from gf2minor import audit, matroid, minors
from gf2minor.audit import MinorWitness, verify_witness
from gf2minor.catalog import get_named
from gf2minor.certify import builtin_cases, replay_case
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import BinaryMatroid, contract, delete

from gen import exchanged, planted_host, random_matroid
from oracles import circuits_by_enumeration, minor_circuits, verify_witness_reference

SRC = Path(audit.__file__).parent

# Package modules the audit may import from, and the names it may take.
ALLOWED_IMPORTS = {
    "errors": None,  # any name
    "gf2": {"rank_of_vectors"},
    "matroid": {"BinaryMatroid", "Graph"},
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _behaviour(cls) -> set[str]:
    """Names of the methods and properties of a dataclass, not its fields."""
    fields = {f.name for f in dataclasses.fields(cls)}
    kinds = (property, cached_property, classmethod, staticmethod)
    return {
        name for name, value in vars(cls).items()
        if name not in fields and (callable(value) or isinstance(value, kinds))
    }


# -- independence from the search ---------------------------------------------


def test_audit_imports_only_the_stdlib_errors_gf2_rank_and_matroid_types():
    stdlib = sys.stdlib_module_names
    for node in ast.walk(_tree("audit")):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in stdlib, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.split(".")[0] in stdlib, node.module
                continue
            assert node.level == 1 and node.module in ALLOWED_IMPORTS, (
                f"audit imports from {'.' * node.level}{node.module or ''}"
            )
            allowed = ALLOWED_IMPORTS[node.module]
            names = {alias.name for alias in node.names}
            assert allowed is None or names <= allowed, (node.module, names)


def test_audit_reads_matroids_only_through_dataclass_fields():
    banned = _behaviour(BinaryMatroid) | _behaviour(Gf2Matrix)
    assert {"rank", "circuits", "ground_set", "col_bits", "columns"} <= banned
    read = {
        node.attr for node in ast.walk(_tree("audit"))
        if isinstance(node, ast.Attribute)
    }
    assert not read & banned, sorted(read & banned)
    assert {"basis_labels", "cobasis_labels", "rows"} <= read


def test_audit_holds_no_module_level_state():
    kinds = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)
    body = _tree("audit").body
    assert isinstance(body[0], ast.Expr)  # the docstring
    assert all(isinstance(node, kinds) for node in body[1:])


def _named(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that occurs in ``tree``."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update((node.name, node.asname))
    return named


def test_search_modules_never_name_the_audits_rank_routine():
    search = ("minors", "realize", "iso")
    for module in search:
        assert "rank_of_vectors" not in _named(_tree(module)), module
    # matroid.py imports the routine for BinaryMatroid.rank, so each of its
    # functions that the search imports, and each that those call, must
    # not name it either.
    functions = {
        node.name: node for node in _tree("matroid").body
        if isinstance(node, ast.FunctionDef)
    }
    todo = {
        alias.name
        for module in search
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module == "matroid"
        for alias in node.names
    } & functions.keys()
    assert {"eliminate", "delete_cycles", "minimal_supports", "extend_echelon"} <= todo
    checked = set()
    while todo:
        name = todo.pop()
        checked.add(name)
        named = _named(functions[name])
        assert "rank_of_vectors" not in named, name
        todo |= (named & functions.keys()) - checked


def test_audit_survives_a_corrupted_circuit_kernel(monkeypatch):
    case = next(c for c in builtin_cases() if c.name == "g7")
    report = replay_case(case)
    host = case.resolve_base().apply_ops(case.ops)
    target = get_named(report.verdict)
    w = report.witness
    pairs = list(w.mapping)
    (t0, h0), (t1, h1) = pairs[0], pairs[1]
    moved = sorted(w.delete_set)[0]
    tampered = [
        MinorWitness(w.contract_set, w.delete_set,
                     tuple([(t0, h1), (t1, h0)] + pairs[2:])),
        MinorWitness(w.contract_set | {moved}, w.delete_set - {moved},
                     w.mapping),
    ]

    kernel = matroid.minimal_supports

    def drop_last(basis):
        return kernel(basis)[:-1]

    for module in (matroid, minors):
        monkeypatch.setattr(module, "minimal_supports", drop_last)
    assert len(target.circuits()) == 36  # M(K5) has 37: the mutation bites
    assert verify_witness(host, target, w)
    for t in tampered:
        assert verify_witness(host, target, t) is False


# -- differential test against the dense oracle ------------------------------


def _oracle_accepts(host, target, w) -> bool:
    mapping = dict(w.mapping)
    expected = {
        frozenset(mapping[e] for e in c)
        for c in circuits_by_enumeration(target)
    }
    return minor_circuits(host, w.contract_set, w.survivors()) == expected


def _repivoted(rng: Random, m: BinaryMatroid) -> BinaryMatroid:
    """The same matroid in another standard form, by random basis exchanges."""
    for _ in range(rng.randint(1, 3)):
        entries = [
            (m.basis_labels[i], m.cobasis_labels[j])
            for i, row in enumerate(m.a.rows)
            for j in range(m.a.n_cols) if row >> j & 1
        ]
        if entries:
            m = exchanged(m, *rng.choice(entries))
    return m


def _random_triple(rng: Random):
    """A host, a target and a witness of one of four kinds.

    The contract set is any subset, dependent ones included.  The target is
    the minor itself under fresh labels, the same re-pivoted with
    ``gen.exchanged``, the minor with two images swapped, or an unrelated
    random matroid on as many elements.
    """
    host = random_matroid(rng, 9, 1)
    elems = list(host.elements())
    rng.shuffle(elems)
    n_contract = rng.randint(0, len(elems) - 1)
    n_delete = rng.randint(0, len(elems) - n_contract - 1)
    c_set = frozenset(elems[:n_contract])
    d_set = frozenset(elems[n_contract:n_contract + n_delete])
    survivors = elems[n_contract + n_delete:]
    kind = rng.choice(("minor", "repivoted", "swapped", "unrelated"))
    if kind == "unrelated":
        target = random_matroid(rng, len(survivors), len(survivors))
        images = list(survivors)
        rng.shuffle(images)
        mapping = dict(zip(target.elements(), images))
    else:
        minor = host.apply_ops(
            [contract(e) for e in sorted(c_set)]
            + [delete(e) for e in sorted(d_set)]
        )
        if kind == "repivoted":
            minor = _repivoted(rng, minor)
        fresh = {lab: f"t{i}" for i, lab in enumerate(minor.elements())}
        target = BinaryMatroid(
            tuple(fresh[lab] for lab in minor.basis_labels),
            tuple(fresh[lab] for lab in minor.cobasis_labels),
            minor.a,
        )
        mapping = {t: lab for lab, t in fresh.items()}
        if kind == "swapped" and len(mapping) >= 2:
            a, b = rng.sample(sorted(mapping), 2)
            mapping[a], mapping[b] = mapping[b], mapping[a]
    w = MinorWitness(c_set, d_set, tuple(sorted(mapping.items())))
    return host, target, w


def _replay_witnesses():
    """(host, target, witness) for each built-in case that emits a witness."""
    triples = []
    for case in builtin_cases():
        report = replay_case(case)
        if report.witness is not None:
            host = case.resolve_base().apply_ops(case.ops)
            triples.append((host, get_named(report.verdict), report.witness))
    return triples


def _tampers(rng: Random, w: MinorWitness) -> list[MinorWitness]:
    """Two images swapped, a deleted element contracted instead and a
    contracted one deleted instead, where the witness allows each."""
    out = []
    pairs = list(w.mapping)
    if len(pairs) >= 2:
        i, j = rng.sample(range(len(pairs)), 2)
        (ti, hi), (tj, hj) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (ti, hj), (tj, hi)
        out.append(MinorWitness(w.contract_set, w.delete_set, tuple(pairs)))
    if w.delete_set:
        d = rng.choice(sorted(w.delete_set))
        out.append(MinorWitness(w.contract_set | {d}, w.delete_set - {d}, w.mapping))
    if w.contract_set:
        c = rng.choice(sorted(w.contract_set))
        out.append(MinorWitness(w.contract_set - {c}, w.delete_set | {c}, w.mapping))
    return out


def test_verify_witness_agrees_with_the_dense_oracle():
    rng = Random(20111)
    verdicts = []
    for _ in range(400):
        host, target, w = _random_triple(rng)
        got = verify_witness(host, target, w)
        assert got == _oracle_accepts(host, target, w), (host, target, w)
        assert got == verify_witness_reference(host, target, w), (host, target, w)
        verdicts.append(got)
    assert 50 <= sum(verdicts) <= 350  # both verdicts occur, often
    # Witnesses found in planted hosts of up to 20 elements, and the replay
    # witnesses, are checked with their tampers against the exchange rule
    # alone: the circuit oracle would try every subset of the host.
    found = []
    for _ in range(200):
        target = random_matroid(rng, 8, 3)
        host = planted_host(rng, target, rng.randint(0, 20 - target.size))
        found.append((host, target, minors.find_minor_witness(host, target)))
    replays = _replay_witnesses()
    assert len(replays) == 28  # every case but g8
    tampered = Counter()
    for host, target, w in found + replays:
        assert verify_witness(host, target, w)
        assert verify_witness_reference(host, target, w)
        for t in _tampers(rng, w):
            got = verify_witness(host, target, t)
            assert got == verify_witness_reference(host, target, t), (host, target, t)
            tampered[got] += 1
    assert tampered[True] and tampered[False] >= 200, tampered


def test_a_well_formed_witness_costs_three_ranks(monkeypatch):
    # Accepted or not: the replay witnesses and their tampers.
    calls = []
    rank = audit.rank_of_vectors

    def counted(vectors):
        calls.append(1)
        return rank(vectors)

    monkeypatch.setattr(audit, "rank_of_vectors", counted)
    rng = Random(3)
    verdicts = Counter()
    for host, target, w in _replay_witnesses():
        for t in [w] + _tampers(rng, w):
            calls.clear()
            verdicts[verify_witness(host, target, t)] += 1
            assert len(calls) == 3
    assert verdicts[True] >= 28 and verdicts[False], verdicts
