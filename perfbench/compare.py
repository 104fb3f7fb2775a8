"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory is a copy of a ``.perfbench`` tree (``<workload>/seed<N>-trace<T>/
result.json``). Results are paired by workload, seed and trace mode. The
comparison is refused (exit 2) when a pair's input digests differ: ``synth``
is program code, so a change may render different inputs from the same seed.
For each workload and metric it prints both medians and the change; with
``BENCHMARK.json`` beside ``perfbench/`` it also marks an end-to-end median
that got worse by more than the metric's bound (exit 1).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(tree: Path) -> dict[tuple[str, str], dict]:
    out = {}
    for path in sorted(tree.glob("*/*/result.json")):
        out[(path.parent.parent.name, path.parent.name)] = json.loads(path.read_text(encoding="utf-8"))
    return out


def compare(base: dict, new: dict, bounds: dict[str, dict]) -> tuple[list[str], bool, list[str]]:
    """(report lines, any regression beyond a bound, refusals)."""
    refusals = []
    for key in sorted(base.keys() & new.keys()):
        a = base[key]["facts"]["workload"]["input_sha256"]
        b = new[key]["facts"]["workload"]["input_sha256"]
        if a != b:
            refusals.append(f"{key[0]}/{key[1]}: input digests differ ({a[:12]} vs {b[:12]})")
    if refusals:
        return [], False, refusals

    lines, regressed = [], False
    for workload in sorted({k[0] for k in base.keys() & new.keys()}):
        values: dict[str, tuple[list[float], list[float]]] = {}
        for key in sorted(base.keys() & new.keys()):
            if key[0] != workload:
                continue
            for side, res in ((0, base[key]), (1, new[key])):
                for name, m in res["metrics"].items():
                    values.setdefault(name, ([], []))[side].append(m["value"])
        lines.append(f"{workload}:")
        for name, (a, b) in values.items():
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else float("nan")
            flag = ""
            spec = bounds.get(name)
            if spec is not None and ma:
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    flag, regressed = "  WORSE than bound", True
            lines.append(f"  {name:28s} {ma:14.6g} -> {mb:14.6g}  {100 * change:+7.2f}%  "
                         f"(n={len(a)}/{len(b)}){flag}")
    return lines, regressed, refusals


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {}
    if BENCHMARK.is_file():
        bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    lines, regressed, refusals = compare(load(Path(argv[0])), load(Path(argv[1])), bounds)
    for r in refusals:
        print(f"refused: {r}", file=sys.stderr)
    if refusals:
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
