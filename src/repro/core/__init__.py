"""Core pipeline: configuration, resolver, clustering, metrics."""

from .clustering import clusters_from_matches, clusters_to_matches
from .config import PowerConfig
from .metrics import QualityReport, entity_quality, pairwise_quality
from .resolver import PowerResolver, ResolutionResult

__all__ = [
    "PowerConfig",
    "PowerResolver",
    "QualityReport",
    "ResolutionResult",
    "clusters_from_matches",
    "clusters_to_matches",
    "entity_quality",
    "pairwise_quality",
]
