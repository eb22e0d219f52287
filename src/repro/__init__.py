"""power-er: cost-effective crowdsourced entity resolution via partial orders.

A from-scratch reproduction of Chai, Li, Li, Deng & Feng, *Cost-Effective
Crowdsourced Entity Resolution: A Partial-Order Approach* (SIGMOD 2016),
including the Power/Power+ framework, the Trans/ACD/GCER baselines, a
simulated crowdsourcing platform, and synthetic stand-ins for the paper's
three evaluation datasets.

Quickstart:
    >>> from repro import PowerResolver, PowerConfig, restaurant
    >>> result = PowerResolver(PowerConfig(seed=1)).resolve(restaurant())
    >>> print(result.questions, result.quality.f_measure)
"""

from .baselines import ACDResolver, BASELINES, GCERResolver, TransResolver
from .core import (
    PowerConfig,
    PowerResolver,
    QualityReport,
    ResolutionResult,
    clusters_from_matches,
    pairwise_quality,
)
from .crowd import LatencyModel, PerfectCrowd, SimulatedCrowd, WorkerPool
from .data import Table, acmpub, cora, load_csv, load_dataset, restaurant, save_csv
from .engine import (
    FAULT_PROFILES,
    BudgetGuard,
    CrowdEngine,
    EngineConfig,
    EngineSession,
    FaultProfile,
    Journal,
    RetryPolicy,
    Telemetry,
)
from .selection import (
    ErrorPolicy,
    MultiPathSelector,
    RandomSelector,
    SELECTORS,
    SinglePathSelector,
    TopoSortSelector,
)
from .similarity import (
    SimilarityConfig,
    batch_similarity_matrix,
    similar_pairs,
    similarity_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "ACDResolver",
    "BASELINES",
    "BudgetGuard",
    "CrowdEngine",
    "EngineConfig",
    "EngineSession",
    "ErrorPolicy",
    "FAULT_PROFILES",
    "FaultProfile",
    "GCERResolver",
    "Journal",
    "LatencyModel",
    "MultiPathSelector",
    "PerfectCrowd",
    "RetryPolicy",
    "Telemetry",
    "PowerConfig",
    "PowerResolver",
    "QualityReport",
    "RandomSelector",
    "ResolutionResult",
    "SELECTORS",
    "SimilarityConfig",
    "SimulatedCrowd",
    "SinglePathSelector",
    "Table",
    "TopoSortSelector",
    "TransResolver",
    "WorkerPool",
    "acmpub",
    "batch_similarity_matrix",
    "clusters_from_matches",
    "cora",
    "load_csv",
    "load_dataset",
    "pairwise_quality",
    "restaurant",
    "save_csv",
    "similar_pairs",
    "similarity_matrix",
    "__version__",
]
