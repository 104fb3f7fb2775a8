"""SHA-256 digests of a rendered corpus and of a run's output files."""

from __future__ import annotations

import hashlib
from pathlib import Path


def files_digest(paths: list[Path]) -> str:
    """Digest over each file's name and bytes, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def input_digest(corpus: Path) -> str:
    """The ``.tsl`` files the program reads, by name."""
    return files_digest(sorted(corpus.glob("*.tsl")))


def output_digest(out: Path) -> str:
    """Every ``*.graphs.json`` plus ``report.json``; raises if the report is missing."""
    report = out / "report.json"
    if not report.is_file():
        raise FileNotFoundError(report)
    return files_digest(sorted(out.glob("*.graphs.json")) + [report])
