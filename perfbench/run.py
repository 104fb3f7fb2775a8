"""trackforge benchmark: time ``trackforge run`` on one workload, check it, trace it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/trackforge`` must exist; the
benchmark exits 2 otherwise). Workloads are defined in ``workloads.py``:
``default-corpus`` and ``many-segments``.

One run:

1. Set-up: renders the workload's corpus from ``--seed`` three times with
   ``synth`` and checks the three renders are byte-identical.
2. A child process (``repeat.py``) imports ``trackforge.cli`` and calls
   ``cli.main(["run", ...])`` in-process, at least twice and for up to
   ``--seconds``; ``run_s`` is the median repeat. With ``--trace 1`` it runs
   once, as the traced work below takes the run's time. It scores the first
   repeat's processed logs with ``evalkit`` against the truth sidecars
   (floor accuracy, turning-point F). ``setup_s`` is the median render plus
   the child's start-up and imports.
3. With ``--trace 1`` only: the same pipeline, composed here from its public
   stage functions (``composed.py``), runs once more with a span around each
   module call. Its outputs must equal the timed runs' byte for byte. It is
   followed by a separate ``track_attitude`` call per log and the
   ``cluster_floors`` scaling probe.

Human-readable tables go to stdout first; the last stdout line is the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. ``result.json`` (with machine and input facts) and, when
traced, ``trace.json`` (spans plus per-layer self time) are written under
``.perfbench/<workload>/seed<N>-trace<T>/``. The exit code is 1 when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RENDERS = 3
CHILD_TIMEOUT_S = 150.0
PROBE_SIZES = (50, 100, 200)

END_TO_END_UNITS = {
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "floor_accuracy": "fraction",
    "turning_f": "fraction",
    "success_rate": "fraction",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "trackforge" / "__init__.py").is_file():
        print(f"perfbench: no trackforge sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_benchmark(args, work)
    finally:
        for name in ("corpus", "runs", "composed"):
            shutil.rmtree(work / name, ignore_errors=True)

    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_benchmark(args: argparse.Namespace, work: Path) -> dict:
    from trackforge import synth
    from trackforge.config import PipelineConfig
    from perfbench import digests, workloads
    from perfbench.composed import composed_run
    from perfbench.spans import Tracer

    problems: list[str] = []

    # 1. set-up: render the corpus RENDERS times
    render_s, render_digests = [], []
    for k in range(RENDERS):
        target = work / f"render{k}"
        t = time.perf_counter()
        synth.write_corpus(workloads.WORKLOADS[args.workload](args.seed), target)
        render_s.append(time.perf_counter() - t)
        render_digests.append(digests.input_digest(target))
    if len(set(render_digests)) != 1:
        problems.append("renders of one seed differ")
    corpus = work / "corpus"
    (work / "render0").rename(corpus)
    for k in range(1, RENDERS):
        shutil.rmtree(work / f"render{k}")

    # 2. timed repeats in a child process, which also scores its first repeat
    child = run_child(corpus, work / "runs", 0.0 if args.trace else args.seconds, 1 if args.trace else 2)
    repeats = child["repeats"]
    problems += [f"repeat {i}: {e}" for i, r in enumerate(repeats) for e in r["errors"]]
    reference = repeats[0]["digest"]
    scores = child["scores"]
    if scores is None:
        problems.append("the first repeat failed, so nothing was scored")
        scores = {"floor_accuracy": 0.0, "turning_f": 0.0, "scored_segments": 0, "imu_samples": 0,
                  "recorded_s": 0.0}

    # 3. traced only: the composed pass, checked byte for byte against the timed runs
    composed_ok = None
    if args.trace:
        cfg = PipelineConfig()
        tracer = Tracer()
        items = composed_run(corpus, work / "composed", cfg, tracer)
        composed_ok = digests.output_digest(work / "composed") == reference
        if not composed_ok:
            problems.append("composed pass output bytes differ from the timed runs")

    attempted, failed = tally(repeats, composed_ok)
    run_s = statistics.median(child["times"])
    end_to_end = {
        "run_s": run_s,
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(render_s) + child["startup_s"],
        "floor_accuracy": scores["floor_accuracy"],
        "turning_f": scores["turning_f"],
        "success_rate": 1.0 - failed / attempted,
    }
    totals = repeats[0]["totals"] or {}
    inputs = sorted(corpus.glob("*.tsl"))
    facts = {
        "machine": machine_facts(),
        "workload": {
            "name": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "input_sha256": render_digests[0],
            "output_sha256": reference,
            "files": len(inputs),
            "input_bytes": sum(path.stat().st_size for path in inputs),
            "imu_samples": scores["imu_samples"],
            "recorded_s": scores["recorded_s"],
            # recorded seconds per run second; not gated, as it is run_s inverted
            "realtime_x": scores["recorded_s"] / run_s,
            "steps": totals.get("steps"),
            "segments": totals.get("segments"),
            "graphs": totals.get("graphs"),
            "scored_segments": scores["scored_segments"],
        },
        "run_s_repeats": child["times"],
        "render_s": render_s,
        "startup_s": child["startup_s"],
    }
    print_end_to_end(args.workload, end_to_end, facts)

    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    if args.trace:
        per_layer, trace_doc = traced_figures(tracer.spans, items, cfg, run_s)
        (work / "trace.json").write_text(json.dumps(trace_doc, indent=1) + "\n", encoding="utf-8")
        print_layers(trace_doc["layers"], per_layer)
        metrics = per_layer

    for p in problems:
        print(f"FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "facts": facts,
    }


def tally(repeats: list[dict], composed_ok: bool | None) -> tuple[int, int]:
    """(attempted, failed): each timed repeat and, when it ran, the composed pass is one operation."""
    attempted = len(repeats) + (composed_ok is not None)
    return attempted, sum(1 for r in repeats if not r["ok"]) + (composed_ok is False)


def run_child(corpus: Path, output_root: Path, seconds: float, min_repeats: int) -> dict:
    """Run repeat.py; its start-up and import time is measured from here."""
    cmd = [sys.executable, str(HERE / "repeat.py"), "--src", str(SRC), "--input", str(corpus),
           "--output-root", str(output_root), "--seconds", str(seconds), "--min-repeats", str(min_repeats)]
    launched = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"repeat.py exited with {proc.returncode}")
    child = json.loads(out.strip().splitlines()[-1])
    child["startup_s"] = child["ready"] - launched
    return child


def traced_figures(spans, items, cfg, run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, the separate attitude call and the probe."""
    from trackforge.floors import cluster_floors
    from trackforge.heading import track_attitude
    from perfbench.spans import busy, layer_summary, self_times

    layers = layer_summary(spans)
    traced_s = spans[0]["end"] - spans[0]["start"]

    attitude_s = 0.0
    trusted = n_states = 0
    for item in items:
        t = time.perf_counter()
        states = track_attitude(item.log.accel, item.log.gyro, item.log.magn, cfg.heading)
        attitude_s += time.perf_counter() - t
        trusted += sum(1 for s in states if s.mag_trust)
        n_states += len(states)

    segments = [seg for item in items for seg in item.segments]
    probe = {}
    for n in PROBE_SIZES:
        # copies: cluster_floors writes floor back onto each segment; copies
        # beyond the workload's own segments get a distinct parent id
        subset = [
            replace(segments[i % len(segments)], floor=None,
                    parent_id=f"{segments[i % len(segments)].parent_id}#{i // len(segments)}")
            for i in range(n)
        ]
        t = time.perf_counter()
        cluster_floors(subset, cut=cfg.floor.cut, floor_count=cfg.floors_override)
        probe[n] = time.perf_counter() - t

    parse_s = busy(spans, "logio.parse_log")
    step_headings_s = busy(spans, "heading.step_headings")
    accel_samples = sum(len(i.log.accel) for i in items)
    points = sum(len(i.trajectory.points) for i in items)
    graphs = sum(i.graphs for i in items)
    raw_groups = graphs + sum(i.dropped for i in items)
    values = {
        "logio.parse_s": (parse_s, "s"),
        "logio.parse_mb_s": (sum(i.input_bytes for i in items) / 1e6 / parse_s, "MB/s"),
        "logio.samples": (sum(len(i.log.accel) + len(i.log.gyro) + len(i.log.magn) + len(i.log.baro)
                              + len(i.log.wifi) for i in items), "count"),
        "logio.write_s": (busy(spans, "logio.write_chain_graphs"), "s"),
        "heading.step_headings_s": (step_headings_s, "s"),
        "heading.track_attitude_s": (attitude_s, "s"),
        "heading.pca_s": (step_headings_s - attitude_s, "s"),
        "heading.us_per_sample": (step_headings_s / accel_samples * 1e6, "us"),
        "heading.mag_trust_frac": (trusted / n_states, "fraction"),
        "floors.cluster_s": (busy(spans, "floors.cluster_floors"), "s"),
        "floors.segments": (len(segments), "count"),
        "floors.segment_s": (busy(spans, "floors.segment_trajectory"), "s"),
        "floors.coverage": (sum(s.point_range[1] - s.point_range[0] for s in segments) / points, "fraction"),
        "stepdetect.s": (layers["stepdetect"]["busy_s"], "s"),
        "stepdetect.steps": (sum(len(i.steps) for i in items), "count"),
        "stride.s": (layers["stride"]["busy_s"], "s"),
        "pdr.integrate_s": (busy(spans, "pdr.integrate"), "s"),
        "pdr.points": (points, "count"),
        "featurize.s": (layers["featurize"]["busy_s"], "s"),
        "featurize.graphs": (graphs, "count"),
        "featurize.kept_ratio": (graphs / raw_groups if raw_groups else 1.0, "fraction"),
        "pipeline.other_s": (layers["pipeline"]["self_s"], "s"),
        "pipeline.traced_s": (traced_s, "s"),
        "pipeline.trace_overhead_s": (traced_s - run_s, "s"),
    }
    for n, secs in probe.items():
        values[f"floors.cluster_s.n{n}"] = (secs, "s")
    per_layer = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    selfs = self_times(spans)
    trace_doc = {
        "spans": [dict(s, self_s=selfs[s["id"]]) for s in spans],
        "layers": layers,
        "traced_s": traced_s,
        "run_s": run_s,
    }
    return per_layer, trace_doc


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


def print_end_to_end(workload: str, values: dict, facts: dict) -> None:
    w = facts["workload"]
    print(f"workload {workload} seed {w['seed']}: {w['files']} file(s), {w['input_bytes']} bytes, "
          f"{w['imu_samples']} IMU samples, {w['recorded_s']:.1f} s recorded, {w['steps']} steps, "
          f"{w['segments']} segments; input sha256 {w['input_sha256'][:16]}")
    print(f"  run repeats: {len(facts['run_s_repeats'])}; {w['realtime_x']:.2f} x realtime")
    for name, value in values.items():
        print(f"  {name:16s} {value:12.4f} {END_TO_END_UNITS[name]}")


def print_layers(layers: dict, per_layer: dict) -> None:
    traced = per_layer["pipeline.traced_s"]["value"]
    print(f"traced pass {traced:.3f} s; layer busy / self time (share of traced total):")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:12s} busy {row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s "
              f"({100 * row['self_s'] / traced:5.1f}%)  spans {row['calls']}")
    for name, m in per_layer.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
