"""Structure-guided coloring of hereditary graph classes.

Public surface: the bitset Graph with graph6/edge-list codecs, induced
pattern detection with witnesses, comparable-vertex reduction, the anchor
decompositions and their property reports, the constructive 4-coloring
pipeline, the chordal 2-approximation, and the instance lab (oracles and
seeded generators).
"""

from .approx import ApproxResult, approx_color, chordal_color, is_chordal, peo
from .coloring import (
    CaseTrace,
    Coloring,
    color_c5_case,
    color_fallback,
    color_h1_case,
    color_h2_case,
    color_w5_case,
    four_color,
    verify_coloring,
)
from .errors import (
    ChordalityViolation,
    GenerationError,
    GraphFormatError,
    InternalCaseFailure,
    NotInClass,
    ReinsertionConflict,
    SizeGuardExceeded,
    UnclassifiableVertex,
)
from .graph import (
    Graph,
    bits,
    complement,
    complete,
    connected_components,
    cycle,
    emit_edge_list,
    emit_graph6,
    empty,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path,
)
from .lab import (
    GeneratorConfig,
    WagonResult,
    c5_blowup,
    clique_number,
    construction,
    enumerate_class_members,
    exact_chromatic,
    generate,
    generate_chordal,
    generate_interval,
    manifest_line,
    parse_manifest,
    petersen,
    wagon_bound_check,
)
from .patterns import (
    PATTERNS,
    Pattern,
    Witness,
    certify_class,
    enumerate_induced,
    find_induced,
    matches_pattern,
)
from .reduction import ReductionTrace, reduce_to_core, reinsert_colors
from .structure import (
    C5Partition,
    H1Partition,
    PropertyCheck,
    PropertyReport,
    c5_partition,
    check_c5_properties,
    check_h1_properties,
    check_h2_properties,
    h1_partition,
    select_best_h1,
    select_best_h2,
)

__version__ = "0.1.0"
