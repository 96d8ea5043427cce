"""Exact root data, Weyl numerators, and tensor product factorization
for basic classical Lie superalgebras."""

from .atypical import (
    AtypicalContext,
    CoefficientValue,
    atypical_context,
    atypical_match,
    closed_form_coefficient,
    coefficient_f1,
    coefficient_oracle,
    enumeration_coefficient,
    shift_to_type,
)
from .errors import SuperweylError
from .numerator import (
    factor_numerator,
    normalized_character,
    numerator,
    x_lambda,
    x_signature,
)
from .partitions import (
    SimpleGraph,
    graph_of_datum,
    iter_ordered_partitions,
    k_partition_counts,
    tree_graph_gpq,
)
from .rootdata import (
    AlgebraDescriptor,
    Dominance,
    Root,
    RootDatum,
    build_b0,
    build_datum,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
    datum_from_file,
    datum_from_text,
)
from .series import Poly, ZSeries, neg_log, theta
from .unifac import (
    Conclusion,
    Counterexample,
    FactorMatch,
    MatchReport,
    iter_counterexamples,
    verify_tensor_isomorphism,
)
from .weyl import WeylGroup, component_group, full_group, pi0_group

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor",
    "AtypicalContext",
    "CoefficientValue",
    "Conclusion",
    "Counterexample",
    "Dominance",
    "FactorMatch",
    "MatchReport",
    "Poly",
    "Root",
    "RootDatum",
    "SimpleGraph",
    "SuperweylError",
    "WeylGroup",
    "ZSeries",
    "atypical_context",
    "atypical_match",
    "build_b0",
    "build_datum",
    "build_f4",
    "build_g3",
    "build_osp2",
    "build_sl",
    "closed_form_coefficient",
    "coefficient_f1",
    "coefficient_oracle",
    "component_group",
    "datum_from_file",
    "datum_from_text",
    "enumeration_coefficient",
    "factor_numerator",
    "full_group",
    "graph_of_datum",
    "iter_counterexamples",
    "iter_ordered_partitions",
    "k_partition_counts",
    "neg_log",
    "normalized_character",
    "numerator",
    "pi0_group",
    "shift_to_type",
    "theta",
    "tree_graph_gpq",
    "verify_tensor_isomorphism",
    "x_lambda",
    "x_signature",
    "__version__",
]
