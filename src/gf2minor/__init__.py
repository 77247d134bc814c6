"""Binary matroids over GF(2): minors, duality, isomorphism, witnesses.

The package provides bit-packed GF(2) matrices, labeled binary matroids in
standard form [I | A] with deletion/contraction/dual operations, exact
circuit enumeration, isomorphism testing, exhaustive minor-containment
search with independently verifiable witnesses, graphicness decided by
graph realization with a checkable certificate either way, and a replay
engine plus CLI for a built-in library of 29 minor-containment
certificates.
"""

from .catalog import (
    CatalogEntry,
    catalog_names,
    entries,
    get_named,
    parse_matrix_file,
    write_matrix_file,
)
from .certify import (
    CertificateCase,
    ReplayReport,
    ReplaySummary,
    builtin_cases,
    load_cases,
    replay_all,
    replay_case,
)
from .errors import (
    CapacityError,
    InputError,
    MatroidError,
    ParseError,
    PivotError,
)
from .gf2 import Gf2Matrix, rank_of_vectors
from .iso import IsoSignature, find_isomorphism, is_isomorphic, signature
from .matroid import (
    BinaryMatroid,
    Graph,
    MinorOp,
    OpTrace,
    complete_bipartite_graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
)
from .minors import (
    CocircuitCheck,
    CocircuitReport,
    MinorWitness,
    check_graphic_cocircuits,
    find_minor_witness,
    graphic_certificate,
    has_minor,
    is_graphic,
    covering_cocircuit_witness,
    verify_graph,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatroid",
    "CapacityError",
    "CatalogEntry",
    "CertificateCase",
    "CocircuitCheck",
    "CocircuitReport",
    "Gf2Matrix",
    "Graph",
    "InputError",
    "IsoSignature",
    "MatroidError",
    "MinorOp",
    "MinorWitness",
    "OpTrace",
    "ParseError",
    "PivotError",
    "ReplayReport",
    "ReplaySummary",
    "builtin_cases",
    "catalog_names",
    "check_graphic_cocircuits",
    "complete_bipartite_graph",
    "complete_graph",
    "contract",
    "cycle_matroid",
    "delete",
    "entries",
    "find_isomorphism",
    "find_minor_witness",
    "get_named",
    "graphic_certificate",
    "has_minor",
    "is_graphic",
    "is_isomorphic",
    "covering_cocircuit_witness",
    "load_cases",
    "parse_matrix_file",
    "rank_of_vectors",
    "replay_all",
    "replay_case",
    "signature",
    "verify_graph",
    "verify_witness",
    "write_matrix_file",
]
