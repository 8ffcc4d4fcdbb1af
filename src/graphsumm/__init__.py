"""Lossy graph summarization by weighted-sample pair merging."""

from .cm_sketch import CountMinSketch, make_hash_seeds
from .evaluation import (InputGraph, QueryErrorReport, build_report,
                         centrality_estimate, degree_estimate,
                         expected_adjacency, membership_index, re_brute,
                         re_closed, triangle_count_exact, triangle_estimate)
from .sampling_tree import SamplingTree
from .summarizer import (ScoredPair, Summarizer, SummarizerConfig,
                         node_weight, sample_pairs, score_approx, score_exact,
                         summarize)
from .summary_graph import SuperEdge, SuperNode, SummaryGraph

__all__ = [
    "CountMinSketch", "make_hash_seeds",
    "InputGraph", "QueryErrorReport", "build_report", "centrality_estimate",
    "degree_estimate", "expected_adjacency", "membership_index", "re_brute",
    "re_closed", "triangle_count_exact", "triangle_estimate",
    "SamplingTree",
    "ScoredPair", "Summarizer", "SummarizerConfig", "node_weight",
    "sample_pairs", "score_approx", "score_exact", "summarize",
    "SuperEdge", "SuperNode", "SummaryGraph",
]
