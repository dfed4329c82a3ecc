"""Bartholdi and Ihara zeta functions and heat kernels on finite simple
graphs, computed by independent routes and cross-verified in exact rational
arithmetic."""

from .edgewalk import edge_closed_tallies
# the adjacency/valency/Laplacian builder is re-exported as graph_operators:
# the bare name would collide with the bzk.operators submodule
from .graphs import (DirectedEdge, Disconnected, DuplicateEdge, EmptyGraph,
                     Graph, GraphError, InvalidParameter, LoopEdge, ball,
                     build_graph, generate, graph_to_json_dict, load_graph,
                     parse_edge_list, parse_graph_json)
from .graphs import operators as graph_operators
from .heat import (BesselEval, HeatKernelValue, NonconvergentTail,
                   ParameterDomain, PipelineReport, bessel_heat_package,
                   bessel_i, check_transform_consistency, heat_kernel_bessel,
                   heat_kernel_spectral, heat_residual, resolvent_transform,
                   series_weight)
from .operators import (IdentityReport, alpha, check_cyclic_bump_identity,
                        check_no_tail_identity, check_r_generating_identity,
                        check_series_inverse_identity, cm_cbc, cm_sequence,
                        delta_diag, r_values)
from .paths import (EnumerationTooDeep, NotClosed, bump_count, closed_geodesic_counts,
                    cm_bruteforce, cyclic_bump_count,
                    enumerate_closed_weighted, has_tail,
                    non_backtracking_matrices, primitive_rooted_closed_paths,
                    rooted_closed_tallies)
from .series import (BadConstantTerm, DimensionMismatch, OperatorPoly,
                     OperatorSeries, OrderMismatch, SeriesError, TPoly,
                     USeries, binomial_power)
from .zeta import (DomainError, EigensolverFailure, NotRegular, SpectralData,
                   cbc_entries, charpoly_exact, euler_product_series,
                   isolate_real_roots, local_spectrum, zeta_formula_series,
                   zeta_log_coefficients, zeta_log_series, zeta_spectral,
                   zeta_spectral_report)

__version__ = "0.1.0"
