"""Certificate checkers that share no code with the searches they audit.

They read a matroid only through its dataclass fields, the labels and the
rows of the block A of [I | A], and compute every rank with
``gf2.rank_of_vectors``.
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

    A binary matroid is fixed by a basis B and its fundamental circuits
    (Oxley, *Matroid Theory*, ch. 6).  The minor is (host / C) | S, of rank
    r'(X) = r(X u C) - r(C).  With primes for images under the mapping, it
    is the target exactly when r'(B') = r'(S) = r(target) and, for all b in
    B and s outside it, B' - b' + s' is a basis of the minor exactly when
    the target's block has a 1 at (b, s): O(r(n - r)) ranks, no circuits.
    """
    mapping = dict(w.mapping)
    if len(mapping) != len(w.mapping):
        raise InputError("witness mapping repeats a target element")
    survivors = list(mapping.values())
    if len(set(survivors)) != len(survivors):
        raise InputError("witness mapping is not injective")
    if set(mapping) != set(target.basis_labels + target.cobasis_labels):
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
    base = rank_of_vectors(row & contracted for row in rows)
    r = len(target.basis_labels)

    def spans(labels) -> bool:  # r'(labels) = r; labels avoid C
        mask = contracted + sum(1 << position[lab] for lab in labels)
        return rank_of_vectors(row & mask for row in rows) - base == r

    basis = [mapping[b] for b in target.basis_labels]
    return spans(basis) and spans(surv_set) and all(
        spans(basis[:i] + basis[i + 1:] + [mapping[s]]) == bool(row >> j & 1)
        for j, s in enumerate(target.cobasis_labels)
        for i, row in enumerate(target.a.rows)
    )


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
