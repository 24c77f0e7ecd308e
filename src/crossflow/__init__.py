"""Valid orientations of graphs embedded in the plane and projective plane.

A valid orientation directs every edge so that indegree minus outdegree
matches a mod-3 prescription at each vertex.  The package provides the
embedded-multigraph model with signed rotation systems, reduction
operations, a cut taxonomy with class validators, instance generators, an
oracle (a frontier DP that decides and reads the witness), and a hybrid
solver emitting replayable traces.
"""

from .cuts import (
    ClassReport,
    CutBudgetError,
    EdgeCut,
    boundary_connectivity,
    check_class,
    classify_cut,
    cut_edges,
    cuts_cross,
    edge_connectivity,
    enumerate_robust_cuts,
    make_cut,
)
from .embedding import (
    DisconnectedError,
    EmbeddedGraph,
    EmbeddingError,
    FaceWalk,
    OperationError,
    StructureError,
    boundary_cycle,
    boundary_vertices,
    canonical_anchor,
    contract_subgraph,
    cycle_sign,
    delete_edge,
    delete_vertex,
    euler_characteristic,
    face_of_anchor,
    is_contractible_chord,
    lift_pair,
    planarize_along_chord,
    reversed_dart,
    side_in_open_disk,
    specified_walk,
    split_doubled_boundary_vertex,
    trace_faces,
)
from .families import (
    FamilyError,
    FamilySpec,
    circulant_schedule,
    detect_family,
    disk_crosscap_graph,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from .orient import (
    DirectedVertexSpec,
    OracleBoundError,
    Orientation,
    OrientationError,
    ScheduleError,
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    orientation_from_tails,
    prescription_ok,
    random_prescription,
    residue,
    transfer_orientation,
)
from .pgr import (
    PgrError,
    digest_graph,
    parse_graph,
    parse_orientation,
    read_graph,
    serialize_graph,
    serialize_orientation,
    write_graph,
)
from .solver import (
    ReductionStep,
    ReductionTrace,
    ReplayReport,
    SolverRefusal,
    TraceError,
    parse_trace,
    replay,
    serialize_trace,
    solve,
)

__version__ = "0.1.0"
