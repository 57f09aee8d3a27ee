"""Generic ranks of Gaussian graphical model covariance submatrices.

Computes rk(Sigma_{A,B}) for the model of a mixed graph as the size of a
minimum trek-separating set (a vertex min-cut on the three-layer trek
network, searched on the graph's own adjacency lists) and cross-checks
every answer against an exact algebraic oracle over a prime field.
"""

from .algebra import (ParamAssignment, RationalMatrix, build_covariance,
                      generic_rank_oracle, sample_parameters,
                      simple_trek_rule_covariance, trek_rule_covariance)
from .graph import (DAG, MIXED, UNDIRECTED, GraphError, InvalidGraphError,
                    MixedGraph, ParseError, ancestors, bidirected_subdivision,
                    graph_class, make_graph, parse_graph, serialize,
                    topological_order, validate)
from .separation import (RankResult, SeparationTriple, ci_implied,
                         d_sep_via_t_sep, d_separates, generic_rank,
                         is_t_separating, min_t_separator, vanishing_tetrad)
from .treks import CapExceededError, Trek, enumerate_simple_treks, trek_monomial
from .verify import SuiteConfig, SuiteReport, cross_check_rank, random_graph, run_suite

__version__ = "0.1.0"

__all__ = [
    "DAG", "MIXED", "UNDIRECTED",
    "MixedGraph", "GraphError", "ParseError", "InvalidGraphError",
    "parse_graph", "serialize", "make_graph", "validate", "graph_class",
    "topological_order", "ancestors", "bidirected_subdivision",
    "Trek", "CapExceededError",
    "enumerate_simple_treks", "trek_monomial",
    "SeparationTriple", "RankResult", "min_t_separator", "generic_rank",
    "is_t_separating", "d_separates", "d_sep_via_t_sep", "ci_implied",
    "vanishing_tetrad",
    "RationalMatrix", "ParamAssignment",
    "sample_parameters", "build_covariance",
    "generic_rank_oracle", "trek_rule_covariance",
    "simple_trek_rule_covariance",
    "SuiteConfig", "SuiteReport", "random_graph", "cross_check_rank",
    "run_suite",
]
