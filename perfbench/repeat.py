"""Timed ``trackforge run`` repeats, in a process that did not render the corpus.

    python3 perfbench/repeat.py --src SRC --input CORPUS --output-root DIR --seconds S [--min-repeats N]

Imports ``trackforge.cli`` and notes the wall-clock time it was ready. Then
calls ``cli.main(["run", ...])`` in-process, one output directory per repeat:
``--min-repeats`` times (default 2), then more while the timed total, with
one more median repeat, stays within ``--seconds``. Each repeat is checked
after its clock stops: exit code 0, no file error in ``report.json``, and
output bytes equal to the first repeat's. During the first repeat a pass-through
wrapper on ``pipeline.process_log`` keeps the processed logs; once its clock
has stopped they are scored against the truth sidecars and released. The last
stdout line is a JSON object with the ready time, the repeat times, the
checks, the scores and this process's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.digests import output_digest  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--output-root", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--min-repeats", type=int, default=2)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from trackforge import cli, pipeline

    ready = time.time()  # wall clock, so the parent can subtract its launch time

    process_log = pipeline.process_log
    captured: list = []

    def keeping_process_log(log, cfg, gait_model):
        item = process_log(log, cfg, gait_model)
        captured.append((item, cfg))
        return item

    times: list[float] = []
    repeats: list[dict] = []
    scores = None
    while len(times) < args.min_repeats or sum(times) + statistics.median(times) <= args.seconds:
        out = args.output_root / f"r{len(times)}"
        pipeline.process_log = keeping_process_log if not times else process_log
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            try:
                rc = cli.main(["run", "--input", str(args.input), "--output", str(out)])
            except Exception as exc:  # a crash is a failed operation, like a non-zero exit
                rc = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t)
        pipeline.process_log = process_log
        repeats.append(check_repeat(rc, out, repeats[0]["digest"] if repeats else None))
        if captured and repeats[-1]["ok"]:
            scores = score_captured([item for item, _ in captured], args.input, captured[0][1])
        captured.clear()

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "times": times, "repeats": repeats, "scores": scores,
                      "peak_rss_mb": peak_kib / 1024.0}))
    return 0


def score_captured(items: list, corpus: Path, cfg) -> dict:
    """Floor accuracy, turning F and input sizes of one repeat's processed logs."""
    from perfbench import scoring

    floor_accuracy, turning_f, scored_segments = scoring.score(items, corpus, cfg)
    return dict(scoring.input_facts(items), floor_accuracy=floor_accuracy, turning_f=turning_f,
                scored_segments=scored_segments)


def check_repeat(rc: int | str, out: Path, reference: str | None) -> dict:
    """Exit code, report errors and output digest of one repeat."""
    errors: list[str] = []
    totals = None
    digest = None
    if rc != 0:
        errors.append(f"exit {rc}")
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        totals = report["totals"]
        errors += [f"{f['name']}: {f['error']}" for f in report["files"] if f["error"] is not None]
        digest = output_digest(out)
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"unreadable output: {exc}")
    if reference is not None and digest != reference:
        errors.append("output bytes differ from the first repeat")
    return {"ok": not errors, "errors": errors, "digest": digest, "totals": totals}


if __name__ == "__main__":
    sys.exit(main())
