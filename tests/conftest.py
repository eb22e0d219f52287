"""Shared fixtures: the paper's running example and small synthetic tables,
and the check that no stream or serve test leaves a snapshot journal open."""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.crowd import PerfectCrowd, SimulatedCrowd, WorkerPool
from repro.data import paper_pairs, paper_table, paper_vectors, synthesize
from repro.data.ground_truth import pair_truth
from repro.data.perturb import LIGHT_PERTURBATIONS
from repro.data.vocab import CITIES, CUISINES, RESTAURANT_NAME_HEADS
from repro.similarity import SimilarityConfig, similar_pairs, similarity_matrix


#: The modules whose tests open snapshot journals (``MANIFEST.jsonl``).
JOURNAL_MODULES = frozenset(
    {
        "test_serve_cli",
        "test_serve_properties",
        "test_serve_protocol",
        "test_serve_server",
        "test_stream_cli",
        "test_stream_properties",
        "test_stream_snapshot",
    }
)


@pytest.fixture(autouse=True)
def no_unclosed_journal(request):
    """Fail a stream or serve test that leaves a snapshot journal open.

    Every ``StreamingResolver`` a test builds must be closed, and every
    ``ServeApp`` drained.  The collection before leaving surfaces a journal
    held only by garbage in this test, not in whichever test the collector
    happens to run in later.  Freezing the objects that existed before the
    test keeps that collection to the test's own objects, so it stays cheap
    however large the session's heap has grown.  Other warnings are passed
    on unchanged.
    """
    if request.module.__name__.rpartition(".")[2] not in JOURNAL_MODULES:
        yield
        return
    gc.freeze()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            yield
            gc.collect()
    finally:
        gc.unfreeze()
    leaked = []
    for warning in caught:
        if issubclass(warning.category, ResourceWarning) and "MANIFEST.jsonl" in str(
            warning.message
        ):
            leaked.append(str(warning.message))
        else:
            warnings.warn_explicit(
                warning.message, warning.category, warning.filename, warning.lineno
            )
    if leaked:
        pytest.fail(f"snapshot journals left open: {leaked}")


@pytest.fixture(scope="session")
def paper():
    """The paper's Table 1/2 bundle: table, pairs, vectors, truth."""
    table = paper_table()
    pairs = paper_pairs()
    vectors = paper_vectors()
    truth = pair_truth(table, pairs)
    return table, pairs, vectors, truth


def _tiny_entity(rng: np.random.Generator) -> tuple[str, str, str]:
    name = RESTAURANT_NAME_HEADS[int(rng.integers(0, len(RESTAURANT_NAME_HEADS)))]
    city = CITIES[int(rng.integers(0, len(CITIES)))]
    cuisine = CUISINES[int(rng.integers(0, len(CUISINES)))]
    return (f"{name} house", city, cuisine)


@pytest.fixture(scope="session")
def small_table():
    """A 60-record / 35-entity table: big enough for non-trivial graphs,
    small enough that every test stays fast."""
    return synthesize(
        name="small",
        attributes=("name", "city", "cuisine"),
        entity_factory=_tiny_entity,
        num_entities=35,
        num_records=60,
        seed=99,
        intensity=0.4,
        pool=LIGHT_PERTURBATIONS,
    )


@pytest.fixture(scope="session")
def small_bundle(small_table):
    """(table, pairs, vectors, truth) for the small synthetic table."""
    pairs = similar_pairs(small_table, 0.2)
    config = SimilarityConfig.uniform(small_table.num_attributes)
    vectors = similarity_matrix(small_table, pairs, config)
    truth = pair_truth(small_table, pairs)
    return small_table, pairs, vectors, truth


@pytest.fixture()
def oracle(small_bundle):
    _, _, _, truth = small_bundle
    return PerfectCrowd(truth)


@pytest.fixture()
def noisy_crowd(small_bundle):
    _, _, _, truth = small_bundle
    return SimulatedCrowd(truth, WorkerPool(accuracy_range="80", seed=5))


def random_vectors(seed: int, n: int, m: int, levels: int = 4) -> np.ndarray:
    """Discretised random similarity vectors (ties included on purpose)."""
    rng = np.random.default_rng(seed)
    return np.round(rng.random((n, m)) * levels) / levels
