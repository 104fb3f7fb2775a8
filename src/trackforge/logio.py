"""TSL sensor-log parsing, chain-graph documents, and the file writers.

TSL is a line-oriented UTF-8 format, one record per line, fields separated
by ``;``, lines terminated by ``\\n``. ``%`` starts a comment line. Record
layouts:

    ACCE;<app_ts>;<sensor_ts>;<ax>;<ay>;<az>;<acc>
    GYRO;<app_ts>;<sensor_ts>;<gx>;<gy>;<gz>;<acc>
    MAGN;<app_ts>;<sensor_ts>;<mx>;<my>;<mz>;<acc>
    PRES;<app_ts>;<sensor_ts>;<hPa>;<acc>
    WIFI;<app_ts>;<sensor_ts>;<ssid>;<bssid>;<freq_mhz>;<rssi_dbm>

Unknown tags are skipped (counted, not fatal) so exports with extra sensors
still parse. Timestamps are 64-bit float seconds; serialization uses the
shortest round-trip decimal representation (``repr``), which makes
parse(serialize(log)) bit-exact.

Both directions work a bounded piece at a time, so their transient memory
follows the piece, not the log: ``parse_log_file`` reads the file, and
``parse_log`` its bytes, in pieces of about ``_CHUNK`` that end at a
newline. Each piece is converted in bulk, by the ``float`` and ``int`` that
the line loop calls on each field, or, when it holds a malformed record,
line by line on its own; only input that is not UTF-8 is read again whole,
for the error's position. ``serialize_log`` formats ``_SERIALIZE_RUN``
records at a time.

Chain graphs are written as a JSON document: ``{"graphs": [...]}`` where each
graph carries ``floor``, ``vertices`` (``origin_index``, ``x``, ``y``, ``t``,
``rss``) and ``edges`` (``dx``, ``dy``).

Every file trackforge writes goes through ``write_text``, every JSON file
through ``write_json``; ``parse_key_values`` reads config and gait-model files.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

_BSSID_RE = re.compile(r"^[0-9a-fA-F]{2}(:[0-9a-fA-F]{2}){5}$")

# sample tag -> (SensorLog stream, value components); every tag -> record fields
_SAMPLE_TAGS = {"ACCE": ("accel", 3), "GYRO": ("gyro", 3), "MAGN": ("magn", 3), "PRES": ("baro", 1)}
_FIELD_COUNTS = {"WIFI": 7, **{tag: width + 4 for tag, (_, width) in _SAMPLE_TAGS.items()}}
_COLUMNS = ("app_timestamp", "sensor_timestamp", "values", "accuracy")
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max  # np.iinfo computes these per read
_CHUNK = 1 << 18  # bytes of input the bulk parse reads and converts at a time
_SERIALIZE_RUN = 1 << 12  # records serialize_log formats at a time


class TslParseError(ValueError):
    """Malformed record on a known tag. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):  # pickled as its constructor's arguments, not as ``args``
        return type(self), (self.line_no, self.message)


class TslEncodingError(ValueError):
    """Input bytes are not valid UTF-8."""


@dataclass(frozen=True)
class SensorSample:
    """One row of a SensorStream: 3 components for ACCE/GYRO/MAGN, 1 for PRES."""

    app_timestamp: float
    sensor_timestamp: float
    values: tuple[float, ...]
    accuracy: int


@dataclass(frozen=True, eq=False)
class SensorStream:
    """One sensor stream as read-only columns, copied in stable app-timestamp
    order. ``values`` is ``(n, 3)`` for ACCE/GYRO/MAGN and ``(n, 1)`` for PRES;
    ``accuracy`` holds exact int64 codes. Equal streams have equal columns.
    """

    app_timestamp: np.ndarray
    sensor_timestamp: np.ndarray
    values: np.ndarray
    accuracy: np.ndarray

    def __post_init__(self) -> None:
        columns = [np.asarray(getattr(self, c), dtype=t) for c, t in zip(_COLUMNS, (float, float, float, np.int64))]
        if columns[2].ndim != 2 or len({len(col) for col in columns}) != 1:
            raise ValueError(f"columns must have equal lengths and 2-D values: {[c.shape for c in columns]}")
        order = np.argsort(columns[0], kind="stable")
        for name, col in zip(_COLUMNS, columns):
            col = col[order]
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __setstate__(self, state: dict) -> None:  # pickle restores columns writeable
        for col in state.values():
            col.flags.writeable = False
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self.app_timestamp)

    def __getitem__(self, i: int) -> SensorSample:
        return SensorSample(float(self.app_timestamp[i]), float(self.sensor_timestamp[i]),
                            tuple(self.values[i].tolist()), int(self.accuracy[i]))

    __iter__ = None  # rows are for indexing; consumers read the columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensorStream):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)


@dataclass(frozen=True)
class WifiObservation:
    app_timestamp: float
    sensor_timestamp: float
    ssid: str
    bssid: str  # normalized lowercase aa:bb:cc:dd:ee:ff
    frequency_mhz: int
    rssi_dbm: int


def _no_samples(width: int):
    return field(default_factory=lambda: SensorStream((), (), np.empty((0, width)), ()))


@dataclass(frozen=True)
class SensorLog:
    """Time-sorted sensor streams from one recording session. Immutable."""

    accel: SensorStream = _no_samples(3)
    gyro: SensorStream = _no_samples(3)
    magn: SensorStream = _no_samples(3)
    baro: SensorStream = _no_samples(1)
    wifi: tuple[WifiObservation, ...] = ()
    source_id: str = ""
    skipped_records: int = 0


def _parse_number(token: str, line_no: int, what: str, kind: type = float, lo=-math.inf, hi=math.inf):
    try:
        value = kind(token)
    except ValueError:
        raise TslParseError(line_no, f"unparsable {what}: {token!r}") from None
    if kind is float and not math.isfinite(value):
        raise TslParseError(line_no, f"non-finite {what}: {token!r}")
    if not lo <= value <= hi:
        raise TslParseError(line_no, f"{what} out of range [{lo}, {hi}]: {value}")
    return value


def _parse_lines(text: str, first_line: int):
    """``(tables, wifi, skipped, newlines)``, one record at a time from line
    number ``first_line``: the parse that raises every TslParseError.
    ``tables`` maps each stream to its ``(n, 2 + width)`` float rows and int64
    accuracy codes; ``newlines`` counts the newlines of ``text``."""
    rows: dict[str, list[list[float]]] = {name: [] for name, _ in _SAMPLE_TAGS.values()}
    codes: dict[str, list[int]] = {name: [] for name, _ in _SAMPLE_TAGS.values()}
    wifi: list[WifiObservation] = []
    skipped = 0
    lines = text.split("\n")
    newlines = len(lines) - 1

    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip("\r")
        if not line or line.startswith("%"):
            continue
        fields = line.split(";")
        tag = fields[0]
        if tag not in _FIELD_COUNTS:
            skipped += 1
            continue
        if len(fields) != _FIELD_COUNTS[tag]:
            raise TslParseError(line_no, f"{tag} expects {_FIELD_COUNTS[tag]} fields, got {len(fields)}")
        app_ts = _parse_number(fields[1], line_no, "app timestamp")
        sensor_ts = _parse_number(fields[2], line_no, "sensor timestamp")
        if app_ts < 0:
            raise TslParseError(line_no, f"negative app timestamp: {app_ts}")
        if tag == "WIFI":
            bssid = fields[4]
            if not _BSSID_RE.match(bssid):
                raise TslParseError(line_no, f"bad bssid: {bssid!r}")
            freq = _parse_number(fields[5], line_no, "frequency", int)
            rssi = _parse_number(fields[6], line_no, "rssi", int, -120, 0)
            wifi.append(WifiObservation(app_ts, sensor_ts, fields[3], bssid.lower(), freq, rssi))
        else:
            name = _SAMPLE_TAGS[tag][0]
            what = "pressure" if tag == "PRES" else f"{tag} component"
            rows[name].append([app_ts, sensor_ts, *(_parse_number(v, line_no, what) for v in fields[3:-1])])
            codes[name].append(_parse_number(fields[-1], line_no, "accuracy code", int, _INT64_MIN, _INT64_MAX))
    del lines  # the line strings are freed before the tables are built

    tables = {name: (np.array(rows[name], dtype=float).reshape(-1, 2 + width), np.array(codes[name], dtype=np.int64))
              for name, width in _SAMPLE_TAGS.values()}
    return tables, wifi, skipped, newlines


def _chunks(stream: BinaryIO) -> Iterator[str]:
    """The text of ``stream``, read in pieces of about ``_CHUNK`` bytes that
    end just after a newline: the last newline within ``_CHUNK``, else the
    first after it. The unfinished line after that newline is carried into the
    next piece, and the last piece ends where the stream does. Each piece is
    decoded on its own, as a newline byte is never part of a multibyte UTF-8
    sequence."""
    carry = b""
    while piece := carry + stream.read(_CHUNK - len(carry)):
        parts, cut = [piece], piece.rfind(b"\n") + 1
        while not cut and (block := stream.read(_CHUNK)):  # a line longer than _CHUNK
            parts.append(block)
            cut = block.find(b"\n") + 1
        cut = cut or len(parts[-1])  # at the end of the stream
        parts[-1], carry = parts[-1][:cut], parts[-1][cut:]
        yield b"".join(parts).decode("utf-8")


def _parse_bulk(text: str):
    """``_parse_lines`` of ``text``, one piece from ``_chunks``: each sample
    tag's fields are converted at once, by the ``float`` and ``int`` that the
    line loop calls on each; other lines go through ``_parse_lines``. Raises
    ValueError or OverflowError on any record that would not give the line
    loop's row: a wrong field count, a token ``float`` or ``int`` rejects, a
    value that is not finite, a negative app timestamp, or an accuracy code
    outside int64."""
    tails: dict[str, list[str]] = {tag: [] for tag in _SAMPLE_TAGS}
    rest: list[str] = []
    lines = text.split("\n")
    newlines = len(lines) - 1
    for line in map(str.strip, lines, repeat("\r")) if "\r" in text else lines:
        tag, _, tail = line.partition(";")
        if tag in tails:
            tails[tag].append(tail)
        elif line:
            rest.append(line)
    del lines  # the line strings are freed before the tables are built
    tables, wifi, skipped, _ = _parse_lines("\n".join(rest), 1)
    for tag, (name, width) in _SAMPLE_TAGS.items():
        block, k = tails.pop(tag), width + 3  # k fields after the tag, accuracy code last
        if not block:
            continue
        if set(map(str.count, block, repeat(";"))) != {k - 1}:
            raise TslParseError(0, f"{tag} records need the line-by-line parse")
        tokens = ";".join(block).split(";")
        codes = np.fromiter(map(int, tokens[k - 1::k]), np.int64, len(block))
        del tokens[k - 1::k]
        table = np.fromiter(map(float, tokens), float, len(tokens)).reshape(-1, k - 1)
        if not np.isfinite(table).all() or (table[:, 0] < 0).any():
            raise TslParseError(0, f"{tag} records need the line-by-line parse")
        tables[name] = table, codes
        del block, tokens  # frees this tag's strings before the next tag's are made
    return tables, wifi, skipped, newlines


def _parse_stream(stream: BinaryIO, source_id: str) -> SensorLog:
    """``parse_log`` of ``stream``, a seekable binary stream at its start, one
    piece of ``_chunks`` at a time. A piece that fails a check of
    ``_parse_bulk`` goes through ``_parse_lines`` alone, its lines numbered
    from the piece's first line. A byte that is not UTF-8 anywhere wins over a
    TslParseError, and only then is the stream read again whole, so that
    TslEncodingError gives the byte's position in the whole input."""
    results = [_parse_lines("", 1)]  # no records: an empty table per stream
    first_line, pieces = 1, _chunks(stream)
    try:
        try:
            for text in pieces:
                try:
                    results.append(_parse_bulk(text))
                except (ValueError, OverflowError):  # TslParseError is a ValueError
                    results.append(_parse_lines(text, first_line))
                first_line += results[-1][3]
        except TslParseError:
            for _ in pieces:  # decodes the rest of the stream
                pass
            raise
    except UnicodeDecodeError as exc:
        stream.seek(0)
        try:
            stream.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise TslEncodingError(f"input is not UTF-8: {exc}") from None

    tables, wifi, skipped, _ = zip(*results)
    streams = {}
    for name, _ in _SAMPLE_TAGS.values():  # popped, each piece's table is freed once joined
        rows, codes = map(np.concatenate, zip(*(t.pop(name) for t in tables)))
        streams[name] = SensorStream(rows[:, 0], rows[:, 1], rows[:, 2:], codes)
    return SensorLog(**streams, wifi=tuple(sorted(chain.from_iterable(wifi), key=lambda w: w.app_timestamp)),
                     source_id=source_id, skipped_records=sum(skipped))


def parse_log(data: bytes, source_id: str = "") -> SensorLog:
    """Parse TSL bytes into a SensorLog.

    Streams come back sorted by app_timestamp (stable, so equal timestamps
    keep file order). Unknown tags are counted in ``skipped_records``.
    Raises TslParseError for malformed known-tag records and TslEncodingError
    for non-UTF-8 input; never anything else. The input is converted in
    pieces of about ``_CHUNK`` bytes that end at a newline; a piece that fails
    a check of the bulk parse is parsed again alone, line by line, and that
    line loop alone decides errors and their line numbers.
    """
    return _parse_stream(io.BytesIO(data), source_id)


def parse_log_file(path: str | Path, source_id: str = "") -> SensorLog:
    """``parse_log`` of the file at ``path``, read from disk ``_CHUNK`` at a
    time, so the file's whole text is never in memory at once; only a file
    that is not UTF-8 is read twice. Errors and line numbers are
    ``parse_log``'s. Raises OSError when the file cannot be opened or read.
    """
    with open(path, "rb") as fh:
        return _parse_stream(fh, source_id)


def nearest_index(src_times, query_times, max_gap: float | None = None) -> np.ndarray:
    """Index of the nearest ``src_times`` sample for each query time.

    ``src_times`` must be sorted ascending. Equally near samples, duplicate
    timestamps included, resolve to the lowest index: the answer is
    ``np.argmin(np.abs(src_times - q))``. The index is -1 when there is no
    sample, or when the nearest one lies farther than ``max_gap``.
    """
    src = np.asarray(src_times, dtype=float)
    query = np.asarray(query_times, dtype=float)
    if len(src) == 0:
        return np.full(query.shape, -1, dtype=int)
    pos = np.searchsorted(src, query)
    below = src[np.maximum(pos - 1, 0)]
    above = src[np.minimum(pos, len(src) - 1)]
    nearest = np.where(np.abs(query - below) <= np.abs(above - query), below, above)
    idx = np.searchsorted(src, nearest)  # first sample holding that time
    if max_gap is not None:
        idx[np.abs(nearest - query) > max_gap] = -1
    return idx


def serialize_log(log: SensorLog) -> str:
    """Render a SensorLog back to TSL text (streams interleaved by time).

    Each float is written as the ``repr`` of a Python float, the shortest
    decimal that round-trips to it (NumPy 2 reprs a NumPy scalar as
    ``np.float64(...)``, and a ``WifiObservation`` may hold one). Records are
    formatted ``_SERIALIZE_RUN`` at a time, in time order, and each run is
    joined into one string, so the line strings of one run at most exist at
    once.
    """
    for w in log.wifi:
        if ";" in w.ssid or "\n" in w.ssid or "\r" in w.ssid:
            raise ValueError(f"ssid must not contain ';' or newlines: {w.ssid!r}")
    streams = [(tag, getattr(log, name)) for tag, (name, _) in _SAMPLE_TAGS.items()]
    times = [stream.app_timestamp for _, stream in streams]
    times.append(np.array([w.app_timestamp for w in log.wifi], dtype=float))
    sizes = [len(t) for t in times]
    order = np.argsort(np.concatenate(times), kind="stable")  # ties keep stream, then record order
    source = np.repeat(np.arange(len(sizes)), sizes)[order]  # which stream each record in order comes from
    index = order - (np.cumsum(sizes) - sizes)[source]  # and its row there

    runs: list[str] = []
    for at in range(0, len(order), _SERIALIZE_RUN):
        src, idx = source[at:at + _SERIALIZE_RUN], index[at:at + _SERIALIZE_RUN]
        lines = np.empty(len(src), dtype=object)
        for k, (tag, stream) in enumerate(streams):
            here = src == k
            columns = (c[idx[here]].tolist() for c in (stream.app_timestamp, stream.sensor_timestamp, stream.values, stream.accuracy))
            lines[here] = [f"{tag};{t!r};{ts!r};{';'.join(map(repr, v))};{acc}\n" for t, ts, v, acc in zip(*columns)]
        here = src == len(streams)
        lines[here] = [
            f"WIFI;{float(w.app_timestamp)!r};{float(w.sensor_timestamp)!r};{w.ssid};{w.bssid};{w.frequency_mhz};{w.rssi_dbm}\n"
            for w in map(log.wifi.__getitem__, idx[here].tolist())
        ]
        runs.append("".join(lines.tolist()))
    return "".join(runs)


def parse_key_values(text: str, source: str, error: type[Exception]) -> Iterator[tuple[int, str, str]]:
    """``(line number, key, value)`` per ``key = value`` line, split at the first ``=``
    and stripped. Blank and ``#`` lines are skipped; a line without ``=`` raises ``error``."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise error(f"{source}:{line_no}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            yield line_no, key, value


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as JSON: keys sorted, indent 1, shortest round-trip floats, final newline."""
    write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def graphs_to_document(graphs: Iterable) -> dict:
    """Chain graphs -> plain-dict document: each ``ChainGraph`` as its fields.

    Built field by field, as ``dataclasses.asdict`` recurses into every value.
    The document shares each vertex's ``rss`` dict with the graph.
    """
    return {
        "graphs": [
            {
                "floor": g.floor,
                "vertices": [
                    {"origin_index": v.origin_index, "x": v.x, "y": v.y, "t": v.t, "rss": v.rss}
                    for v in g.vertices
                ],
                "edges": [{"dx": e.dx, "dy": e.dy} for e in g.edges],
            }
            for g in graphs
        ]
    }


def write_chain_graphs(graphs: Sequence, path: str | Path) -> None:
    """Write chain graphs to ``path`` as a ``write_json`` document."""
    write_json(path, graphs_to_document(graphs))


def parse_chain_graphs(data: str | bytes):
    """Inverse of write_chain_graphs; yields value-equal ChainGraph objects."""
    from .featurize import ChainEdge, ChainGraph, ChainVertex

    doc = json.loads(data)  # bytes are decoded as UTF-8
    graphs = []
    for g in doc["graphs"]:
        vertices = tuple(
            ChainVertex(
                origin_index=v["origin_index"],
                x=v["x"],
                y=v["y"],
                t=v["t"],
                rss=None if v["rss"] is None else {str(k): int(r) for k, r in v["rss"].items()},
            )
            for v in g["vertices"]
        )
        edges = tuple(ChainEdge(dx=e["dx"], dy=e["dy"]) for e in g["edges"])
        graphs.append(ChainGraph(floor=g["floor"], vertices=vertices, edges=edges))
    return graphs
