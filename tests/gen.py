"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

from random import Random

from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import BinaryMatroid, Graph, MinorOp, contract, delete


def random_matroid(rng: Random, max_elements: int, min_elements: int = 0) -> BinaryMatroid:
    """Random standard-form matroid with size in [min_elements, max_elements]."""
    while True:
        n = rng.randint(min_elements, max_elements)
        k = rng.randint(0, n)
        if n - k >= 0:
            break
    c = n - k
    rows = tuple(rng.getrandbits(c) for _ in range(k))
    a = Gf2Matrix(k, c, rows)
    basis = tuple(f"x{i + 1}" for i in range(k))
    cobasis = tuple(f"y{j + 1}" for j in range(c))
    return BinaryMatroid(basis, cobasis, a)


def exchanged(m: BinaryMatroid, basis_label: str, cobasis_label: str) -> BinaryMatroid:
    """``m`` in the standard form that swaps one basis element for one
    cobasis element, whose entry of A must be 1: every subset keeps its
    rank, and only the representation changes."""
    i, j = m.basis_labels.index(basis_label), m.cobasis_labels.index(cobasis_label)
    basis, cobasis = list(m.basis_labels), list(m.cobasis_labels)
    basis[i], cobasis[j] = cobasis[j], basis[i]
    return BinaryMatroid(tuple(basis), tuple(cobasis), m.a.pivot(i, j))


def random_graph(rng: Random, max_vertices: int, max_edges: int) -> Graph:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edges)
    edges = tuple(
        (rng.randrange(nv), rng.randrange(nv), f"e{i + 1}") for i in range(ne)
    )
    return Graph(nv, edges)


def relabeled_copy(rng: Random, m: BinaryMatroid) -> BinaryMatroid:
    """Same bits, shuffled fresh labels (isomorphic by construction)."""
    fresh = [f"z{i + 1}" for i in range(m.size)]
    rng.shuffle(fresh)
    k = m.a.n_rows
    return BinaryMatroid(tuple(fresh[:k]), tuple(fresh[k:]), m.a)


def random_simple_graph(
    rng: Random, max_vertices: int, min_edges: int, max_edges: int
) -> Graph:
    """Random graph without loops or parallel edges (a simple cycle matroid).

    It has 3 to ``max_vertices`` vertices and as many edges in
    [min_edges, max_edges] as its vertex pairs allow.
    """
    nv = rng.randint(3, max_vertices)
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    hi = min(max_edges, len(pairs))
    chosen = sorted(rng.sample(pairs, rng.randint(min(min_edges, hi), hi)))
    return Graph(nv, tuple((u, v, f"e{i + 1}") for i, (u, v) in enumerate(chosen)))


def planted_minor(
    rng: Random, target: BinaryMatroid, extra: int
) -> tuple[BinaryMatroid, list[MinorOp]]:
    """Random host with ``target`` as a minor, keeping the target's labels.

    The host's compact block is [[A, X], [Y, Z]] with A the target's and X,
    Y, Z random.  The ops contract the extra basis rows (labels u1, u2, ...)
    and delete the extra cobasis columns (v1, v2, ...), which gives back the
    target itself.
    """
    extra_rows = rng.randint(0, extra)
    extra_cols = extra - extra_rows
    k, c = target.a.n_rows, target.a.n_cols
    rows = [r | (rng.getrandbits(extra_cols) << c) for r in target.a.rows]
    rows += [rng.getrandbits(c + extra_cols) for _ in range(extra_rows)]
    new_rows = tuple(f"u{i + 1}" for i in range(extra_rows))
    new_cols = tuple(f"v{j + 1}" for j in range(extra_cols))
    host = BinaryMatroid(
        target.basis_labels + new_rows, target.cobasis_labels + new_cols,
        Gf2Matrix(k + extra_rows, c + extra_cols, tuple(rows)),
    )
    return host, [contract(e) for e in new_rows] + [delete(e) for e in new_cols]


def planted_host(rng: Random, target: BinaryMatroid, extra: int) -> BinaryMatroid:
    """Random host with ``target`` as a minor, under fresh shuffled labels:
    the host of ``planted_minor``, relabeled."""
    return relabeled_copy(rng, planted_minor(rng, target, extra)[0])


def covering_instances(rng: Random, count: int, min_elements: int):
    """``count`` random (m, ops, c_n) with c_n a cocircuit of m after ops.

    m has ``min_elements`` to 10 elements and ops one to three random
    contractions or deletions.  The draws are those of the acceptance
    suite's covering-cocircuit property, so seed 0x1EAF gives its bank.
    """
    done = 0
    while done < count:
        m = random_matroid(rng, 10, min_elements=min_elements)
        mm = m
        ops: list[MinorOp] = []
        for _ in range(rng.randint(1, 3)):
            if mm.size <= 1:
                break
            e = rng.choice(sorted(mm.ground_set))
            op = contract(e) if rng.random() < 0.5 else delete(e)
            ops.append(op)
            mm = mm.apply_ops([op])
        if not ops:
            continue
        cocircuits = sorted(mm.dual().circuits(), key=lambda s: (len(s), sorted(s)))
        if not cocircuits:
            continue
        yield m, ops, rng.choice(cocircuits)
        done += 1


def coloop_host_of_22_elements() -> BinaryMatroid:
    """22 elements of rank 3 whose only coloop, x3, is a cocircuit of its own.

    Deleting it leaves 21 elements, one more than the graphicness test takes.
    """
    cols = [j % 4 for j in range(19)]
    rows = tuple(
        sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(3)
    )
    return BinaryMatroid(
        ("x1", "x2", "x3"), tuple(f"y{j + 1}" for j in range(19)),
        Gf2Matrix(3, 19, rows),
    )
