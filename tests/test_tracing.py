"""The benchmark's span tracer against the package: every name it patches
must exist, and the merge loop must reach the patched names at run time.
Reads benchmark/tracing.py and never changes it."""

import importlib.util
import random
from pathlib import Path

from conftest import gnp_edges
from graphsumm import Summarizer, SummarizerConfig, SummaryGraph

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_install_and_undo():
    tracing = load_tracing()
    targets = tracing.traced_targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracer.install(patches)
    try:
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw, attr
        # width * depth = 16: some candidate pairs are sketch-scored, so the
        # loop builds rows through the traced build_sketches
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.3, random.Random(13)))
        Summarizer(g, SummarizerConfig(target_k=6, seed=2, score_mode="sketch",
                                       sketch_width=8)).run()
    finally:
        patches.undo()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, attr
    assert tracer.calls("summarizer.step", "summarizer.run") == 54
    assert tracer.calls("summarizer.build_sketches", "summarizer.step") > 0
    assert tracer.calls("summarizer.score_approx", "summarizer.step") > 0
    assert tracer.calls("cm_sketch.inner_product_estimate") > 0
