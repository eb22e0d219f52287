"""Figs 15-17: effect of the similarity function (Jaccard / edit / bigram)."""

from conftest import run_once
from repro.experiments import figures


def test_fig15_17_similarity_functions(benchmark, results):
    rows = run_once(
        benchmark,
        figures.similarity_function_sweep,
        save_to=results("fig15_17_similarity_functions.txt"),
    )
    # r.band carries the similarity-function label in this sweep.
    for dataset in {r.dataset for r in rows}:
        for method in ("power+", "acd"):
            scores = [
                r.f_measure for r in rows if r.dataset == dataset and r.method == method
            ]
            # Fig 15: the similarity function has little impact on quality.
            assert max(scores) - min(scores) < 0.25
        power_questions = [
            r.questions for r in rows if r.dataset == dataset and r.method == "power"
        ]
        # Fig 16: question counts stay within the same order of magnitude.
        assert max(power_questions) < 10 * max(1, min(power_questions))
