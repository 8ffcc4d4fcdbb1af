"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sparse-exact --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports graphsumm from its
``src`` directory; without one it exits 2 and prints no result. Jobs of the
chosen workload repeat until the next one would overrun ``--seconds`` (at
least one always runs); each job's outputs are checked. With ``--trace 0``
the end-to-end metrics are phase times in scaled seconds (see speed.py),
each the median over the less contended half of its samples; the library
workloads' finish_s is scaled by a reference pass instead (see
workloads.timed_finish). With ``--trace 1`` one untraced job runs first,
then traced jobs give the per-layer metrics: work counts from the first
traced job (they must repeat exactly) and wall times as medians. Metric names and units come from
BENCHMARK.json. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import graphsumm from this checkout's src only."""
    if not (SRC / "graphsumm" / "__init__.py").is_file():
        raise ImportError(f"no graphsumm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphsumm
    if Path(graphsumm.__file__).resolve().parent != SRC / "graphsumm":
        raise ImportError(f"graphsumm imported from {graphsumm.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# metrics

def layer_metrics(tracer, job) -> dict[str, float]:
    """Per-layer values of one traced job."""
    t = tracer
    steps = t.calls("summarizer.step")
    scored = t.calls("summarizer.score_exact") + t.calls("summarizer.score_approx")
    draws = t.calls("sampling_tree.get_leaf", "summarizer.sample_pairs")
    redraws = max(0, draws - 2 * t.counters["summarizer.pairs"])
    values = {
        "sampling_tree.get_leaf.calls": t.calls("sampling_tree.get_leaf"),
        "sampling_tree.get_leaf.self_s": t.self_s("sampling_tree.get_leaf"),
        "sampling_tree.patch.calls": t.calls("sampling_tree.patch"),
        "sampling_tree.patch.self_s": t.self_s("sampling_tree.patch"),
        "sampling_tree.build_s": t.inclusive_s("sampling_tree.build"),
        "sampling_tree.visits": t.counters["sampling_tree.visits"],
        "summarizer.node_weight.calls": t.calls("summarizer.node_weight"),
        "summarizer.node_weight.self_s": t.self_s("summarizer.node_weight"),
        "summarizer.init_s": t.inclusive_s("summarizer.init"),
        "summarizer.build_sketches_s": t.inclusive_s("summarizer.build_sketches"),
        "summarizer.step.calls": steps,
        "summarizer.step.self_s": t.self_s("summarizer.step"),
        "summarizer.sample_pairs.self_s": t.self_s("summarizer.sample_pairs"),
        "summarizer.score_exact.self_s": t.self_s("summarizer.score_exact"),
        "summarizer.score_approx.self_s": t.self_s("summarizer.score_approx"),
        "summarizer.candidates_per_merge": scored / steps if steps else 0.0,
        "summarizer.redraw_frac": redraws / draws if draws else 0.0,
        "summary_graph.merge.calls": t.calls("summary_graph.merge"),
        "summary_graph.merge.self_s": t.self_s("summary_graph.merge"),
        "summary_graph.merge.touched": t.counters["summary_graph.merge.touched"],
        "summary_graph.from_edge_list_s": t.inclusive_s("summary_graph.from_edge_list"),
        "summary_graph.copy_s": t.inclusive_s("summary_graph.copy"),
        "cm_sketch.update.calls": t.calls("cm_sketch.update"),
        "cm_sketch.update.self_s": t.self_s("cm_sketch.update"),
        "cm_sketch.inner_product_estimate.calls": t.calls("cm_sketch.inner_product_estimate"),
        "cm_sketch.inner_product_estimate.self_s": t.self_s("cm_sketch.inner_product_estimate"),
        "cm_sketch.combined.calls": t.calls("cm_sketch.combined"),
        "cm_sketch.combined.self_s": t.self_s("cm_sketch.combined"),
        "evaluation.build_report_s": t.inclusive_s("evaluation.build_report"),
        "evaluation.triangle_estimate_s": t.inclusive_s("evaluation.triangle_estimate"),
        "evaluation.triangle_count_exact_s": t.inclusive_s("evaluation.triangle_count_exact"),
        "evaluation.re_closed_s": t.inclusive_s("evaluation.re_closed"),
        "cli.main.self_s": t.self_s("cli.main"),
        "cli.parse_edge_list_s": t.inclusive_s("cli.parse_edge_list"),
        "cli.write_summary_s": t.inclusive_s("cli.write_summary"),
        "cli.read_summary_s": t.inclusive_s("cli.read_summary"),
        "cli.summary_bytes": job.summary_bytes,
        "trace.coverage": t.total_self_s() / job.wall_s,
    }
    return values


COUNT_UNITS = ("count", "bytes")
MIN_SETUPS = 5  # library workloads time extra set-ups until they have this many
FINISH_REPEATS = 20  # re_closed calls timed per library job


def _quiet_median(walls, scaled):
    """Median scaled time over the less contended half of the samples, those
    whose wall/scaled ratio is at most the median ratio: the probe
    correction is least exact under the heaviest contention."""
    ratios = [wall / value for wall, value in zip(walls, scaled)]
    cut = statistics.median(ratios)
    return statistics.median([value for value, ratio in zip(scaled, ratios) if ratio <= cut])


def run(args) -> int:
    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    patches = tracing.Patches()
    try:
        inputs = workloads.prepare(w, args.seed, workdir)
        marks = workloads.LoopMarks()
        if w.via_cli:
            marks.install(patches)
        tracer = tracing.Tracer() if args.trace else None
        outcome = _measure(w, inputs, args, workdir, marks, tracer, patches)
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    return _emit(declared, args, outcome)


def _measure(w, inputs, args, workdir, marks, tracer, patches):
    import speed
    import workloads

    jobs, layers, problems, breakdown = [], [], [], []
    attempted = failed = 0
    untraced_total = None
    started = time.perf_counter()
    deadline = started + args.seconds
    longest = 0.0

    def one_job():
        nonlocal attempted, failed, longest
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        if w.via_cli:
            job = workloads.cli_job(w, inputs, args.seed, workdir, marks)
        else:
            job = workloads.library_job(w, inputs, args.seed,
                                        1 if tracer is not None else FINISH_REPEATS)
        layer = None
        if tracer is not None and not job.errors:
            layer = layer_metrics(tracer, job)
            breakdown[:] = tracer.breakdown()
        if jobs and job.digest != jobs[0].digest and not job.errors:
            job.errors.append("summary differs from the first job's with the same seed")
        attempted += 1
        if job.errors:
            failed += 1
            problems.extend(job.errors)
        degenerate = None
        if w.via_cli:
            messy = workloads.messy_input_case(workdir, args.seed)
            attempted += 1
            if messy is not None:
                failed += 1
                problems.append(f"messy edge list: {messy}")
            degenerate = workloads.degenerate_k1_case(workdir, args.seed)
            if degenerate is not None:
                print(f"known defect, '0 1 / 5 5' with --k 1: {degenerate}")
        if layer is not None:
            layer["cli.degenerate_k1_failed"] = int(degenerate is not None)
        longest = max(longest, time.perf_counter() - began)
        return job, layer

    # Traced runs time plain wall clock: their spans must not contain probes.
    with speed.WallClock() if tracer is not None else speed.SpeedSampler() as clock:
        if tracer is not None:
            # The same job untraced, as the yardstick for tracing overhead.
            job, _ = one_job()
            if not job.errors:
                untraced_total = job.wall_s
            tracer.install(patches)
        while True:
            job, layer = one_job()
            if not job.errors:
                jobs.append(job)
                if layer is not None:
                    layers.append(layer)
            if time.perf_counter() + longest > deadline:
                break
        setups = [job.setup for job in jobs]
        if tracer is None and not w.via_cli:
            while len(setups) < MIN_SETUPS:
                setups.append(workloads.library_setup(w, inputs, args.seed))
    # Scaled only now, so that every interval has probes on both sides.
    return dict(jobs=jobs, phases=[job.scaled(clock) for job in jobs],
                setups=([end - start for start, end in setups],
                        [clock.scaled(*setup) for setup in setups]),
                layers=layers, problems=problems,
                attempted=attempted, failed=failed, untraced_total=untraced_total,
                breakdown=breakdown, elapsed=time.perf_counter() - started)


def _emit(declared, args, outcome) -> int:
    jobs, layers = outcome["jobs"], outcome["layers"]
    problems = outcome["problems"]
    if args.trace:
        specs = declared["per_layer"]
        units = {spec["name"]: spec["unit"] for spec in specs}
        values = {}
        if layers:
            for name in layers[0]:
                series = [layer[name] for layer in layers]
                if units.get(name) in COUNT_UNITS:
                    if len(set(series)) != 1:
                        problems.append(f"counter {name} differs between jobs: {series}")
                    values[name] = series[0]
                else:
                    values[name] = statistics.median(series)
            traced_total = statistics.median([job.wall_s for job in jobs])
            untraced = outcome["untraced_total"]
            values["trace.overhead_frac"] = (1.0 - untraced / traced_total
                                             if untraced else 0.0)
    else:
        specs = declared["end_to_end"]
        values = {}
        if jobs:
            walls = [job.walls() for job in jobs]
            setup_s = _quiet_median(*outcome["setups"])
            loop_s, finish_s = (_quiet_median([w[i] for w in walls],
                                              [p[i] for p in outcome["phases"]])
                                for i in (1, 2))
            if jobs[0].finish_ratios:
                # Library finishes: the median over every timed call of the run.
                finish_s = jobs[0].scaled_finish(
                    [ratio for job in jobs for ratio in job.finish_ratios])
            values = {
                "total_s": setup_s + loop_s + finish_s,
                "setup_s": setup_s,
                "merges_per_s": jobs[0].merges / loop_s,
                "finish_s": finish_s,
                "re_l1_normalized": statistics.median([job.re_l1_normalized for job in jobs]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    names = {spec["name"] for spec in specs}
    if values and set(values) != names:
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ names)} "
                           f"do not match BENCHMARK.json")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} checked jobs in {outcome['elapsed']:.1f} s, "
          f"{outcome['failed']} of {outcome['attempted']} operations failed")
    if jobs:
        print("unscaled job wall times (s): "
              + ", ".join(f"{job.wall_s:.3f}" for job in jobs))
    if jobs and not args.trace:
        print("wall / scaled: " + ", ".join(f"{job.wall_s / sum(p):.3f}"
                                            for job, p in zip(jobs, outcome["phases"])))
    if outcome["breakdown"]:
        print("spans of the last traced job (name <- parent):")
        for line in outcome["breakdown"]:
            print("  " + line)
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            value = values[spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:<42} {value!r} {spec['unit']} "
                  f"({spec['better']} is better)")
    if not metrics:
        print("no job completed its checks", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not problems, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_package()
    except ImportError as err:
        print(f"benchmark: cannot import graphsumm: {err}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
