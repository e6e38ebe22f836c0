"""Desk-scale laboratory for spin-singlet correlation experiments.

Simulates EPR-Bohm singlet runs under pluggable counterfactual models,
checks the exact finite-run Bell identities and the asymptotic V3/V4
inequalities, decides local-polytope feasibility of correlation targets,
and classifies which correlations have definite values under hypothesis
sets drawn from {QM, WeakRealism, Locality, EACP, FWP}.
"""

from .core import (
    Angle,
    Block,
    CorrelationEstimate,
    OutcomeSequence,
    Side,
    SYM_E,
    SYM_EP,
    SYM_P,
    SYM_PP,
    correlate,
    pair_symbol,
)
from .inequalities import (
    FeasibilityResult,
    SearchOutcome,
    V3Report,
    V4Report,
    eval_v3,
    eval_v4,
    falsification_search,
    feasible_quad,
    feasible_triple,
    sica_v3_check,
    sica_v4_check,
)
from .quantum import SingletSource, twisted_malus
from .realism import (
    CollapseSequential,
    FileReplay,
    LHVSign,
    ReplayFormatError,
    UnsupportedAxisError,
    generate_block,
    lhv_outcomes,
    model_from_spec,
)
from .relativity import (
    Boost,
    CorrelationStatus,
    DefinabilityEngine,
    Hypothesis,
    HypothesisSet,
    IntervalType,
    NoCorrelationReport,
    SpacetimeEvent,
    StatusKind,
    UndefinedCorrelationError,
    boosted_order,
    boosted_time,
    find_observer,
    interval_type,
    no_correlation_check,
)

__version__ = "0.1.0"
