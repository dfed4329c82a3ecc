"""Bartholdi and Ihara zeta functions and heat kernels on finite simple
graphs, computed by independent routes and cross-verified in exact rational
arithmetic."""

from .edgewalk import edge_closed_tallies
from .graphs import (DirectedEdge, Disconnected, DuplicateEdge, EmptyGraph,
                     Graph, GraphError, InvalidParameter, LoopEdge,
                     build_graph, generate, graph_to_json_dict, load_graph,
                     parse_edge_list, parse_graph_json)
from .heat import (BesselEval, HeatKernelValue, NonconvergentTail,
                   ParameterDomain, PipelineReport, bessel_heat_package,
                   bessel_i, check_transform_consistency, heat_kernel_bessel,
                   heat_kernel_spectral, resolvent_transform, series_weight)
from .operators import (IdentityReport, alpha, check_cyclic_bump_identity,
                        check_no_tail_identity, check_r_generating_identity,
                        check_series_inverse_identity, cm_sequence,
                        delta_diag, r_values)
# No route calls bzk.paths, but the benchmark tracer (perfbench/tracing.py)
# wraps its two enumerators by name and finds the module in sys.modules when
# it installs, so importing bzk still loads it.
from . import paths
from .series import (BadConstantTerm, DimensionMismatch, OperatorPoly,
                     OperatorSeries, OrderMismatch, SeriesError, TPoly,
                     USeries)
from .zeta import (DomainError, EigensolverFailure, NotRegular, SpectralData,
                   cbc_entries, charpoly_exact, euler_product_series,
                   isolate_real_roots, local_spectrum, zeta_formula_series,
                   zeta_log_coefficients, zeta_log_series,
                   zeta_spectral_report)

__version__ = "0.1.0"
