"""Certificate checkers that share no code with the searches they audit.

One principle serves both: a binary matroid is determined by its cocycle
space (Oxley, *Matroid Theory*), the row space of [I | A].  A certificate
holds when it names a space of the right rank that contains the claimed
cocycles, and that takes a few ranks, computed with ``gf2.rank_of_vectors``.
The checkers read a matroid only through its dataclass fields, the labels
and the rows of the block A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .gf2 import rank_of_vectors
from .matroid import BinaryMatroid, Graph


def _rows(m: BinaryMatroid) -> tuple[dict[str, int], list[int]]:
    """Positions by label, and the rows of [I | A] as bitmasks over them."""
    k = len(m.basis_labels)
    labels = m.basis_labels + m.cobasis_labels
    rows = [(1 << i) | (row << k) for i, row in enumerate(m.a.rows)]
    return {lab: i for i, lab in enumerate(labels)}, rows


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that a host contains a minor isomorphic to a target.

    ``mapping`` pairs each target element with the surviving host element it
    corresponds to; contracting ``contract_set`` and deleting ``delete_set``
    leaves exactly the survivors.
    """

    contract_set: frozenset[str]
    delete_set: frozenset[str]
    mapping: tuple[tuple[str, str], ...]

    def survivors(self) -> frozenset[str]:
        return frozenset(h for _, h in self.mapping)

    def as_dict(self) -> dict:
        return {
            "contract": sorted(self.contract_set),
            "delete": sorted(self.delete_set),
            "map": {t: h for t, h in self.mapping},
        }


def verify_witness(
    host: BinaryMatroid, target: BinaryMatroid, w: MinorWitness
) -> bool:
    """Whether ``w`` names a minor of ``host`` mapped onto ``target``.

    Structural defects (overlapping sets, non-bijections, labels outside the
    ground sets, elements left unaccounted for) raise InputError; a
    well-formed witness that names a different minor returns False.

    The minor is host / C \\ D on the survivors S.  The host's rows cut to
    C u S span the cocycles of host \\ D, and those that avoid C are the
    cocycles of the minor, a space of rank r(rows cut to C u S) minus
    r(rows cut to C).  It is the target's exactly when that rank is
    r(target) and the target's rows, mapped onto S, lie in the span of the
    cut rows: three ranks, no circuits.
    """
    mapping = dict(w.mapping)
    if len(mapping) != len(w.mapping):
        raise InputError("witness mapping repeats a target element")
    survivors = list(mapping.values())
    if len(set(survivors)) != len(survivors):
        raise InputError("witness mapping is not injective")
    target_position, target_rows = _rows(target)
    if set(mapping) != target_position.keys():
        raise InputError("witness mapping must cover the target ground set")
    position, rows = _rows(host)
    for lab in w.contract_set | w.delete_set | set(survivors):
        if lab not in position:
            raise InputError(f"witness references unknown host element {lab!r}")
    if w.contract_set & w.delete_set:
        raise InputError("witness contract and delete sets overlap")
    surv_set = frozenset(survivors)
    if (w.contract_set | w.delete_set) & surv_set:
        raise InputError("witness survivors overlap contract/delete sets")
    if w.contract_set | w.delete_set | surv_set != position.keys():
        raise InputError("witness does not account for every host element")

    contracted = sum(1 << position[lab] for lab in w.contract_set)
    kept = contracted + sum(1 << position[lab] for lab in surv_set)
    space = [row & kept for row in rows]
    image = [position[mapping[lab]] for lab in target_position]
    mapped = [
        sum(1 << p for i, p in enumerate(image) if row >> i & 1)
        for row in target_rows
    ]
    k = rank_of_vectors(space)
    minor_rank = k - rank_of_vectors(row & contracted for row in rows)
    contains = rank_of_vectors(space + mapped) == k
    return minor_rank == len(target_rows) and contains


def verify_graph(m: BinaryMatroid, g: Graph) -> bool:
    """Whether the cycle matroid of ``g`` is ``m``, edge labels as elements.

    InputError unless the edge labels biject onto E(m).  Each vertex star
    (a loop's two ends cancel) must lie in the row space of [I | A], the
    cocycle space of ``m``, and the stars must have rank r(m): the cut space
    of ``g`` then equals that cocycle space, and a binary matroid is
    determined by its cocycle space.
    """
    position, rows = _rows(m)
    # Graph already rejects repeated labels, so equal counts make a bijection.
    if len(g.edges) != len(position) or any(
        lab not in position for _, _, lab in g.edges
    ):
        raise InputError("graph edge labels must biject onto the ground set")
    stars = [0] * g.n_vertices
    for u, v, lab in g.edges:
        stars[u] ^= 1 << position[lab]
        stars[v] ^= 1 << position[lab]
    k = len(rows)
    return rank_of_vectors(stars) == k and rank_of_vectors(rows + stars) == k
