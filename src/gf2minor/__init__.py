"""Binary matroids over GF(2): minors, duality, isomorphism, witnesses.

The package provides bit-packed GF(2) matrices, labeled binary matroids in
standard form [I | A] with deletion/contraction/dual operations, exact
circuit enumeration, isomorphism testing, exhaustive minor-containment
search, graphicness by graph realization, and a replay engine plus CLI for
29 built-in certificates.  Found minors and graphicness answers carry a
witness or a graph that ``audit`` checks, sharing no code with the search.
"""

from .audit import MinorWitness, verify_graph, verify_witness
from .catalog import (
    catalog_names,
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
from .iso import find_isomorphism
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
    check_graphic_cocircuits,
    find_minor_witness,
    graphic_certificate,
    is_graphic,
    covering_cocircuit_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatroid",
    "CapacityError",
    "CertificateCase",
    "CocircuitCheck",
    "CocircuitReport",
    "Gf2Matrix",
    "Graph",
    "InputError",
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
    "find_isomorphism",
    "find_minor_witness",
    "get_named",
    "graphic_certificate",
    "is_graphic",
    "covering_cocircuit_witness",
    "load_cases",
    "parse_matrix_file",
    "rank_of_vectors",
    "replay_all",
    "replay_case",
    "verify_graph",
    "verify_witness",
    "write_matrix_file",
]
