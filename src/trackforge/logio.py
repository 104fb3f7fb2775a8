"""TSL sensor-log parsing and chain-graph document serialization.

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

Chain graphs are written as a JSON document: ``{"graphs": [...]}`` where each
graph carries ``floor``, ``vertices`` (``origin_index``, ``x``, ``y``, ``t``,
``rss``) and ``edges`` (``dx``, ``dy``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

_BSSID_RE = re.compile(r"^[0-9a-fA-F]{2}(:[0-9a-fA-F]{2}){5}$")

_IMU_TAGS = {"ACCE": "accel", "GYRO": "gyro", "MAGN": "magn"}


class TslParseError(ValueError):
    """Malformed record on a known tag. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TslEncodingError(ValueError):
    """Input bytes are not valid UTF-8."""


@dataclass(frozen=True)
class SensorSample:
    """One IMU/barometer reading: 3 components for ACCE/GYRO/MAGN, 1 for PRES."""

    app_timestamp: float
    sensor_timestamp: float
    values: tuple[float, ...]
    accuracy: int


@dataclass(frozen=True)
class WifiObservation:
    app_timestamp: float
    sensor_timestamp: float
    ssid: str
    bssid: str  # normalized lowercase aa:bb:cc:dd:ee:ff
    frequency_mhz: int
    rssi_dbm: int


@dataclass(frozen=True)
class SensorLog:
    """Time-sorted sensor streams from one recording session. Immutable."""

    accel: tuple[SensorSample, ...] = ()
    gyro: tuple[SensorSample, ...] = ()
    magn: tuple[SensorSample, ...] = ()
    baro: tuple[SensorSample, ...] = ()
    wifi: tuple[WifiObservation, ...] = ()
    source_id: str = ""
    skipped_records: int = 0


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise TslParseError(line_no, f"unparsable {what}: {token!r}") from None
    if not math.isfinite(value):
        raise TslParseError(line_no, f"non-finite {what}: {token!r}")
    return value


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise TslParseError(line_no, f"unparsable {what}: {token!r}") from None


def _parse_timestamps(fields: list[str], line_no: int) -> tuple[float, float]:
    app_ts = _parse_float(fields[1], line_no, "app timestamp")
    sensor_ts = _parse_float(fields[2], line_no, "sensor timestamp")
    if app_ts < 0:
        raise TslParseError(line_no, f"negative app timestamp: {app_ts}")
    return app_ts, sensor_ts


def parse_log(data: bytes | str, source_id: str = "") -> SensorLog:
    """Parse TSL bytes (or text) into a SensorLog.

    Streams come back sorted by app_timestamp (stable, so equal timestamps
    keep file order). Unknown tags are counted in ``skipped_records``.
    Raises TslParseError for malformed known-tag records and TslEncodingError
    for non-UTF-8 input; never anything else.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TslEncodingError(f"input is not UTF-8: {exc}") from None
    else:
        text = data

    streams: dict[str, list[SensorSample]] = {"accel": [], "gyro": [], "magn": [], "baro": []}
    wifi: list[WifiObservation] = []
    skipped = 0

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip("\r")
        if not line or line.startswith("%"):
            continue
        fields = line.split(";")
        tag = fields[0]

        if tag in _IMU_TAGS:
            if len(fields) != 7:
                raise TslParseError(line_no, f"{tag} expects 7 fields, got {len(fields)}")
            app_ts, sensor_ts = _parse_timestamps(fields, line_no)
            values = tuple(_parse_float(fields[3 + k], line_no, f"{tag} component") for k in range(3))
            acc = _parse_int(fields[6], line_no, "accuracy code")
            streams[_IMU_TAGS[tag]].append(SensorSample(app_ts, sensor_ts, values, acc))
        elif tag == "PRES":
            if len(fields) != 5:
                raise TslParseError(line_no, f"PRES expects 5 fields, got {len(fields)}")
            app_ts, sensor_ts = _parse_timestamps(fields, line_no)
            hpa = _parse_float(fields[3], line_no, "pressure")
            acc = _parse_int(fields[4], line_no, "accuracy code")
            streams["baro"].append(SensorSample(app_ts, sensor_ts, (hpa,), acc))
        elif tag == "WIFI":
            if len(fields) != 7:
                raise TslParseError(line_no, f"WIFI expects 7 fields, got {len(fields)}")
            app_ts, sensor_ts = _parse_timestamps(fields, line_no)
            ssid = fields[3]
            bssid = fields[4]
            if not _BSSID_RE.match(bssid):
                raise TslParseError(line_no, f"bad bssid: {bssid!r}")
            freq = _parse_int(fields[5], line_no, "frequency")
            rssi = _parse_int(fields[6], line_no, "rssi")
            if not -120 <= rssi <= 0:
                raise TslParseError(line_no, f"rssi out of range [-120, 0]: {rssi}")
            wifi.append(WifiObservation(app_ts, sensor_ts, ssid, bssid.lower(), freq, rssi))
        else:
            skipped += 1

    key = lambda s: s.app_timestamp
    return SensorLog(
        accel=tuple(sorted(streams["accel"], key=key)),
        gyro=tuple(sorted(streams["gyro"], key=key)),
        magn=tuple(sorted(streams["magn"], key=key)),
        baro=tuple(sorted(streams["baro"], key=key)),
        wifi=tuple(sorted(wifi, key=key)),
        source_id=source_id,
        skipped_records=skipped,
    )


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


def _fmt(x: float) -> str:
    # repr gives the shortest decimal that round-trips to the same float
    return repr(float(x))


def _check_text_field(value: str, what: str) -> str:
    if ";" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} must not contain ';' or newlines: {value!r}")
    return value


def serialize_log(log: SensorLog) -> str:
    """Render a SensorLog back to TSL text (streams interleaved by time)."""
    records: list[tuple[float, int, str]] = []
    tag_for = {"accel": "ACCE", "gyro": "GYRO", "magn": "MAGN"}
    for name, tag in tag_for.items():
        for s in getattr(log, name):
            components = ";".join(_fmt(v) for v in s.values)
            records.append((
                s.app_timestamp, len(records),
                f"{tag};{_fmt(s.app_timestamp)};{_fmt(s.sensor_timestamp)};{components};{s.accuracy}",
            ))
    for s in log.baro:
        records.append((
            s.app_timestamp, len(records),
            f"PRES;{_fmt(s.app_timestamp)};{_fmt(s.sensor_timestamp)};{_fmt(s.values[0])};{s.accuracy}",
        ))
    for w in log.wifi:
        ssid = _check_text_field(w.ssid, "ssid")
        records.append((
            w.app_timestamp, len(records),
            f"WIFI;{_fmt(w.app_timestamp)};{_fmt(w.sensor_timestamp)};{ssid};{w.bssid};{w.frequency_mhz};{w.rssi_dbm}",
        ))
    records.sort(key=lambda r: (r[0], r[1]))
    body = "\n".join(r[2] for r in records)
    return body + "\n" if body else ""


def graphs_to_document(graphs: Iterable) -> dict:
    """Chain graphs -> plain-dict document (see module docstring for schema)."""
    out = []
    for g in graphs:
        out.append({
            "floor": g.floor,
            "vertices": [
                {
                    "origin_index": v.origin_index,
                    "x": v.x,
                    "y": v.y,
                    "t": v.t,
                    "rss": dict(sorted(v.rss.items())) if v.rss is not None else None,
                }
                for v in g.vertices
            ],
            "edges": [{"dx": e.dx, "dy": e.dy} for e in g.edges],
        })
    return {"graphs": out}


def write_chain_graphs(graphs: Sequence, destination: str | Path | IO[str]) -> int:
    """Serialize chain graphs as JSON to a path or text stream.

    Returns the number of bytes written (UTF-8). Output is byte-deterministic:
    keys sorted, floats in shortest round-trip form.
    """
    text = json.dumps(graphs_to_document(graphs), sort_keys=True, indent=1)
    text += "\n"
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        destination.write(text)
    return len(text.encode("utf-8"))


def parse_chain_graphs(data: str | bytes):
    """Inverse of write_chain_graphs; yields value-equal ChainGraph objects."""
    from .featurize import ChainEdge, ChainGraph, ChainVertex

    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = json.loads(data)
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
