"""Corona products of graphs via subdivision: construction, closed-form
Laplacian {1}-inverses, resistance distances and Kirchhoff indices, with a
brute-force oracle and a self-verification corpus."""
from __future__ import annotations

from .errors import CoronaKitError, EdgeListError, PreconditionError, SingularMatrixError
from .graphs import (
    BASE,
    COPY,
    EDGE_KIND,
    SUBDIVISION,
    VERTEX_KIND,
    CoronaLayout,
    Graph,
    adjacency_matrix,
    complete_graph,
    corona,
    cycle_graph,
    degree_matrix,
    format_edge_list,
    incidence_matrix,
    is_connected,
    is_regular,
    laplacian,
    parse_edge_list,
    path_graph,
    star_graph,
    subdivision,
)
from .linalg import (
    ENTRY_TOL,
    RESIDUAL_TOL,
    SYMMETRY_TOL,
    group_inverse_laplacian,
    group_inverse_trace_and_sum,
    inverse,
)
from .metrics import (
    KirchhoffResult,
    closed_form_resistance_matrix,
    edge_copy_resistance_alt,
    kf_edge_corona_regular,
    kf_vertex_corona,
    kf_vertex_corona_regular,
    kirchhoff_oracle,
    metric_violation,
    neighbor_identity_check,
    resistance_edge_corona,
    resistance_matrix_from_one_inverse,
    resistance_oracle,
    resistance_vertex_corona,
    vertex_copy_resistance_alt,
)
from .one_inverse import (
    OneInverse,
    laplacian_of_product,
    one_inverse_corona,
    one_inverse_edge_corona,
    one_inverse_vertex_corona,
)
from .verify import (
    CheckCase,
    VerificationReport,
    builtin_pairs,
    named_graph,
    report_to_dict,
    run_verification,
)

__version__ = "0.1.0"
