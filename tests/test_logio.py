import io
import pickle
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streams import stream
from trackforge import logio
from trackforge.featurize import ChainEdge, ChainGraph, ChainVertex
from trackforge.logio import (
    SensorLog,
    SensorSample,
    SensorStream,
    TslEncodingError,
    TslParseError,
    WifiObservation,
    graphs_to_document,
    nearest_index,
    parse_chain_graphs,
    parse_log,
    parse_log_file,
    serialize_log,
    write_chain_graphs,
)


class TestParseBasics:
    def test_accel_line(self):
        log = parse_log(b"ACCE;1.000;1.000;0.0;0.0;9.81;3\n")
        assert len(log.accel) == 1
        s = log.accel[0]
        assert s.app_timestamp == 1.0
        assert s.values == (0.0, 0.0, 9.81)
        assert s.accuracy == 3

    def test_comment_and_empty(self):
        log = parse_log(b"% comment\n")
        assert log == SensorLog()

    def test_wifi_line(self):
        log = parse_log(b"WIFI;2.0;2.0;lab;AA:BB:CC:DD:EE:FF;2412;-60\n")
        assert len(log.wifi) == 1
        w = log.wifi[0]
        assert w.bssid == "aa:bb:cc:dd:ee:ff"  # normalized lowercase
        assert w.rssi_dbm == -60
        assert w.ssid == "lab"

    def test_pres_line(self):
        log = parse_log(b"PRES;3.5;3.5;1013.25;0\n")
        assert log.baro[0].values == (1013.25,)

    def test_unknown_tags_skipped(self):
        log = parse_log(b"GNSS;1;2;3\nACCE;1.0;1.0;0;0;9.8;3\nCELL;x\n")
        assert log.skipped_records == 2
        assert len(log.accel) == 1

    def test_streams_sorted_stably(self):
        text = (
            "ACCE;2.0;2.0;1;1;1;3\n"
            "ACCE;1.0;1.0;0;0;9.8;3\n"
            "ACCE;2.0;2.0;2;2;2;3\n"
        )
        log = parse_log(text.encode())
        assert log.accel.app_timestamp.tolist() == [1.0, 2.0, 2.0]
        # ties keep file order
        assert log.accel.values[:, 0].tolist() == [0.0, 1.0, 2.0]


class TestParseErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "ACCE;1.0;1.0;x;0;9.8;3",       # unparsable number
            "ACCE;1.0;1.0;0;0;9.8",          # field count
            "ACCE;-1.0;1.0;0;0;9.8;3",       # negative timestamp
            "PRES;1.0;1.0;nan;0",            # non-finite
            "WIFI;1.0;1.0;lab;zz:bb:cc:dd:ee:ff;2412;-60",  # bad bssid
            "WIFI;1.0;1.0;lab;aa:bb:cc:dd:ee;2412;-60",     # 5 octets
            "WIFI;1.0;1.0;lab;aa:bb:cc:dd:ee:ff;2412;-500", # rssi range
            "WIFI;1.0;1.0;lab;aa:bb:cc:dd:ee:ff;ch6;-60",   # bad int
        ],
    )
    def test_malformed_known_tag(self, line):
        with pytest.raises(TslParseError) as err:
            parse_log((line + "\n").encode())
        assert err.value.line_no == 1

    @pytest.mark.parametrize("code", [2**63, -(2**63) - 1, 10**30])
    def test_accuracy_outside_int64_is_a_parse_error(self, code):
        data = f"ACCE;1.0;1.0;0;0;9.8;3\nPRES;2.0;2.0;1013.0;{code}\n".encode()
        with pytest.raises(TslParseError) as err:
            parse_log(data)
        assert err.value.line_no == 2

    def test_error_carries_later_line_number(self):
        with pytest.raises(TslParseError) as err:
            parse_log(b"ACCE;1.0;1.0;0;0;9.8;3\nACCE;bad\n")
        assert err.value.line_no == 2

    def test_non_utf8(self):
        with pytest.raises(TslEncodingError):
            parse_log(b"\xff\xfe\x00ACCE")

    def test_non_utf8_byte_wins_over_an_earlier_malformed_record(self, tmp_path):
        """A malformed first record, then a byte that is not UTF-8 about 900 KB
        later, pieces after it: the encoding error wins, and it gives the
        byte's position in the whole input."""
        head = b"ACCE;1.0;1.0;0;x;9.8;3\n" + b"ACCE;1.0;1.0;0;0;9.8;3\n" * 40_000
        data = head + b"\xff\nACCE;2.0;2.0;0;0;9.8;3\n"
        path = tmp_path / "log.tsl"
        path.write_bytes(data)
        expected = f"input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position {len(head)}: " \
                   "invalid start byte"
        assert len(head) > 3 * logio._CHUNK
        for outcome in (_outcome(data), _outcome(path), _outcome(data, line_loop=True)):
            assert outcome == (TslEncodingError, expected)

    def test_fuzz_never_crashes(self):
        """Random character swaps in records of every tag: parse_log gives the
        line loop's columns bit for bit, or the same error."""
        for data in _fuzzed_logs(3000):
            _assert_parse_matches_line_loop(data)


def _fuzzed_logs(count):
    """``count`` TSL inputs, each a small log of every tag with 1 to 6
    random characters swapped in, from a fixed seed."""
    import random

    rng = random.Random(99)
    base = (
        "ACCE;1.0;1.0;0.1;0.2;9.8;3\nGYRO;1.0;1.0;0;0;0.1;3\n"
        "MAGN;1.0;1.0;20;5;40;3\nPRES;1.0;1.0;1013.2;0\n"
        "WIFI;1.0;1.0;lab;aa:bb:cc:dd:ee:ff;2412;-60\n"
        "ACCE;2.5;2.5;-1e-3;+2;9.75;-7\nPRES;2.5;2.5;1013.25;1\n"
    )
    # printable ASCII, the characters of numbers again, and what float() or the line split treat specially
    alphabet = [chr(c) for c in range(32, 127)] + list("0123456789.eE+-;" * 3) + list("\r\n\t\x00_٣１")
    for _ in range(count):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        yield "".join(chars).encode()


def _outcome(data, line_loop=False):
    """Every stream column's dtype, shape and bytes, the WiFi records and the
    skip count of ``parse_log(data)``, or ``parse_log_file(data)`` for a path;
    or the error's type and text. With ``line_loop``, the bytes ``data`` are
    one piece and go through the line loop alone."""
    try:
        with (mock.patch.multiple(logio, _CHUNK=len(data) + 1, _parse_bulk=mock.Mock(side_effect=ValueError))
              if line_loop else nullcontext()):
            log = parse_log_file(data) if isinstance(data, Path) else parse_log(data)
    except (TslParseError, TslEncodingError) as exc:
        return type(exc), str(exc)
    columns = [getattr(getattr(log, name), c) for name in ("accel", "gyro", "magn", "baro")
               for c in ("app_timestamp", "sensor_timestamp", "values", "accuracy")]
    return [(c.dtype.str, c.shape, c.tobytes()) for c in columns], log.wifi, log.skipped_records


def _bulk_parse_pieces(stream):
    """``_parse_bulk`` of every piece ``_chunks`` cuts from ``stream``: raises
    where any piece would take the line loop."""
    for text in logio._chunks(stream):
        logio._parse_bulk(text)


def _assert_parse_matches_line_loop(data, path=None):
    """``parse_log(data)`` gives the line loop's outcome, and so does
    ``parse_log_file`` of the same bytes written to ``path``, when given."""
    expected = _outcome(data, line_loop=True)
    assert _outcome(data) == expected
    if path is not None:
        path.write_bytes(data)
        assert _outcome(path) == expected


_TOKENS = ["1_000", " 1 ", "٣", "１", "inf", "1e400", "9223372036854775808", "+3", "-0", "", "1e", "-1"]
_LAYOUTS = [
    "ACCE;1.0;1.0;0;0;9.8;3\r\nPRES;1.0;1.0;1013.2;0\r\n",
    "\rACCE;1.0;1.0;0;0;9.8;3\r\r\n% note\r\n",
    "ACCE;1.0;1.0;0;0;9.8;;3\n",
    "ACCE\nACCE;1.0;1.0;0;0;9.8;3\n",
    "ACCE;1.0;1.0;0;0;9.8;3;4\nACCE;2.0;2.0;0;0;3\n",  # one field too many, one too few
    "PRES;1.0;1.0;1013.2;0\nPRES;2.0;1013.2;0;0;0\nPRES;3.0;3.0;0\n",
    "ACCE;1.0;1.0;0;0;9.8;3\nACCE;1.0;1.0;0;0;9.8;3\rACCE;1.0;1.0;0;0;9.8;3\n",
    "ACCE;1.0;1.0;0;0;9.8;3\nPRES;2.0;2.0;1013.2;0",  # no newline after the last line
    "PRES;2.0;2.0;1013.2;0\nPRES;3.0;3.0;1013.2",
    f"% {'long comment ' * 8}\nWIFI;1.0;1.0;{'ssid' * 12};aa:bb:cc:dd:ee:ff;2412;-60\nACCE;1.0;1.0;0;0;9.8;3\n",
]


def _token_log(token, field):
    """A three-record log whose middle ACCE record holds ``token`` in ``field``."""
    fields = "ACCE;1.0;1.0;0.1;0.2;9.8;3".split(";")
    fields[field] = token
    return ("GYRO;0.5;0.5;0;0;0.1;3\n" + ";".join(fields) + "\nACCE;2.0;2.0;0;0;9.8;3\n").encode()


class TestBulkParse:
    """parse_log converts whole sample blocks at once and falls back to the
    line loop on any failed check; both must always agree."""

    @pytest.mark.parametrize("token", _TOKENS)
    @pytest.mark.parametrize("field", range(1, 7))
    def test_token_in_any_field_matches_line_loop(self, token, field):
        _assert_parse_matches_line_loop(_token_log(token, field))

    @pytest.mark.parametrize("text", _LAYOUTS)
    def test_layouts_match_line_loop(self, text):
        _assert_parse_matches_line_loop(text.encode())

    def test_crlf_parses_as_lf(self):
        text = serialize_log(_small_log())
        assert parse_log(text.replace("\n", "\r\n").encode(), source_id="unit") == _small_log()
        logio._parse_bulk(text.replace("\n", "\r\n"))  # no fallback

    @pytest.mark.parametrize("text", _LAYOUTS)
    def test_newline_count_is_the_texts(self, text):
        # _parse_stream numbers each piece's lines from these counts
        for parse in (lambda piece: logio._parse_lines(piece, 1), logio._parse_bulk):
            try:
                newlines = parse(text)[3]
            except (ValueError, OverflowError):  # malformed, or left to the line loop
                continue
            assert newlines == text.count("\n")

    @pytest.mark.parametrize("token, value", [("1_000", 1000), (" 1 ", 1), ("٣", 3), ("１", 1)])
    def test_tokens_float_and_int_take_parse_in_bulk(self, token, value):
        """float() and int() take these, so the line loop does; the bulk pass
        converts with the same functions, so it takes them too, without a
        fallback, and gives the line loop's columns."""
        text = f"ACCE;1.0;1.0;{token};0;9.8;{token}\n"
        rows, codes = logio._parse_bulk(text)[0]["accel"]  # raises where it would fall back
        assert rows[0, 2] == value and codes[0] == value
        log = parse_log(text.encode())
        assert log.accel.values[0, 0] == value and log.accel.accuracy[0] == value
        assert _outcome(text.encode()) == _outcome(text.encode(), line_loop=True)

    def test_bad_line_after_many_good_ones_keeps_its_line_number(self):
        _assert_bad_line_keeps_its_number()


def _assert_bad_line_keeps_its_number(path=None):
    good = "ACCE;1.0;1.0;0;0;9.8;3\n" * 10_000
    bad = (good + "ACCE;2.0;2.0;0;0;9.8;x\n" + good).encode()
    assert len(parse_log(good.encode()).accel) == 10_000
    assert _outcome(bad, line_loop=True) == (TslParseError, "line 10001: unparsable accuracy code: 'x'")
    _assert_parse_matches_line_loop(bad, path)


# chunk sizes that put a boundary after every line (1) or between most lines (40)
_SMALL_CHUNKS = [1, 40]


class TestChunkedParse:
    """The bulk parse converts its input in chunks that end at a newline; the
    parse differential tests hold whatever the chunk size, for bytes in
    memory and for the same bytes read from a file."""

    @pytest.fixture(params=_SMALL_CHUNKS, autouse=True)
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(logio, "_CHUNK", request.param)

    @pytest.fixture
    def path(self, tmp_path):
        return tmp_path / "log.tsl"

    def test_fuzz_never_crashes(self, path):
        for data in _fuzzed_logs(1000):
            _assert_parse_matches_line_loop(data, path)

    @pytest.mark.parametrize("text", _LAYOUTS)
    def test_layouts_match_line_loop(self, text, path):
        _assert_parse_matches_line_loop(text.encode(), path)

    def test_token_in_any_field_matches_line_loop(self, path):
        for token in _TOKENS:
            for field in range(1, 7):
                _assert_parse_matches_line_loop(_token_log(token, field), path)

    def test_bad_line_after_many_good_ones_keeps_its_line_number(self, path):
        _assert_bad_line_keeps_its_number(path)

    def test_crlf_parses_as_lf(self, path):
        crlf = serialize_log(_small_log()).replace("\n", "\r\n").encode()
        path.write_bytes(crlf)
        assert parse_log(crlf, source_id="unit") == parse_log_file(path, source_id="unit") == _small_log()
        with open(path, "rb") as fh:
            _bulk_parse_pieces(fh)  # no fallback


@pytest.mark.parametrize("template", [
    "% {pad}",
    "WIFI;1.5;1.5;{pad};aa:bb:cc:dd:ee:ff;2412;-60",
    "ACCE;1.5;1.5;0;0;9.8;{pad}",
], ids=["comment", "ssid", "bad-accuracy"])
def test_line_longer_than_the_chunk(template, tmp_path):
    """At the default chunk size, a line that runs past two whole chunks, and
    a last line with no newline: bytes and file give the line loop's outcome,
    and only the malformed record takes the line loop."""
    filler = "ACCE;1.0;1.0;0;0;9.8;3\n" * 1000
    long_line = template.format(pad="x" * (2 * logio._CHUNK + 100))
    data = (filler + long_line + "\n" + filler + "PRES;2.0;2.0;1013.2;0").encode()
    path = tmp_path / "log.tsl"
    _assert_parse_matches_line_loop(data, path)
    if not template.startswith("ACCE"):
        assert len(parse_log_file(path).accel) == 2000
        with open(path, "rb") as fh:
            _bulk_parse_pieces(fh)  # no fallback


def _boundary_logs():
    """A log with a CRLF line and a multibyte SSID, and the same log with a bad
    UTF-8 byte or a malformed record put in, each near the middle."""
    lines = [
        "ACCE;1.0;1.0;0.1;0.2;9.8;3",
        "PRES;1.5;1.5;1013.2;0\r",
        "WIFI;2.0;2.0;café ☕;aa:bb:cc:dd:ee:ff;2412;-60",
        "GYRO;2.5;2.5;0;0;0.1;3",
        "MAGN;3.0;3.0;20;5;40;3",
    ]
    good = "\n".join(lines + lines) + "\n"
    middle = good.index("GYRO")
    return {
        "good": good.encode(),
        "unterminated": good.rstrip("\n").encode(),
        "bad-utf8": good[:middle].encode() + b"\xff" + good[middle:].encode(),
        "malformed": (good[:middle] + "ACCE;4.0;4.0;0;x;9.8;3\n" + good[middle:]).encode(),
    }


@pytest.mark.parametrize("case", ["good", "unterminated", "bad-utf8", "malformed"])
def test_chunk_boundary_on_both_sides_of_each_special_line(case, monkeypatch, tmp_path):
    """Every chunk size from one byte to the whole input, so each boundary
    falls before and after the CRLF line, the SSID's multibyte characters,
    the bad byte, the malformed record and the unterminated last line; the
    input is parsed as bytes and from a file."""
    data = _boundary_logs()[case]
    path = tmp_path / "log.tsl"
    path.write_bytes(data)
    expected = _outcome(data, line_loop=True)
    if case in ("bad-utf8", "malformed"):
        assert expected[0] is (TslEncodingError if case == "bad-utf8" else TslParseError)
    for chunk in range(1, len(data) + 2):
        monkeypatch.setattr(logio, "_CHUNK", chunk)
        assert _outcome(data) == expected
        assert _outcome(path) == expected
        if case in ("good", "unterminated"):
            _bulk_parse_pieces(io.BytesIO(data))  # no fallback


def _small_log():
    return SensorLog(
        accel=stream([0.01, 0.02], [(0.1, -0.2, 9.81), (0.3, 0.0, 9.7999999)]),
        gyro=stream([0.01], [(0.0, 0.001, -0.2)]),
        magn=stream([0.015], [(21.5, 3.25, 40.0)]),
        baro=stream([0.0], [1013.2500001], width=1, accuracy=0),
        wifi=(WifiObservation(0.02, 0.02, "ap", "aa:bb:cc:00:11:22", 2412, -61),),
        source_id="unit",
    )


class TestRoundTrip:
    def test_small_log_bit_exact(self):
        log = _small_log()
        again = parse_log(serialize_log(log).encode(), source_id="unit")
        assert again == log

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_accel_round_trip_property(self, rows):
        rows.sort(key=lambda r: r[0])
        log = SensorLog(accel=stream([r[0] for r in rows], [r[1:] for r in rows]))
        assert parse_log(serialize_log(log).encode()) == log

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_streams_round_trip_in_stable_order(self, data):
        """Every sample stream, with repeated timestamps and any int64
        accuracy code, survives serialize -> parse bit for bit, and its
        samples stay in stable app-timestamp order."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        streams = {}
        for name, width in (("accel", 3), ("gyro", 3), ("magn", 3), ("baro", 1)):
            rows = data.draw(st.lists(st.tuples(
                st.integers(0, 4).map(lambda k: 0.25 * k),  # few distinct times: many ties
                finite,
                st.tuples(*[finite] * width),
                st.integers(-(2**63), 2**63 - 1),
            ), max_size=12), label=name)
            app, sensor, values, codes = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
            streams[name] = SensorStream(app, sensor, np.reshape(values, (-1, width)), codes)
            expected = sorted(rows, key=lambda r: r[0])  # Python's sort is stable
            assert [streams[name][i] for i in range(len(rows))] == [SensorSample(*r) for r in expected]
        log = SensorLog(**streams)
        _bulk_parse_pieces(io.BytesIO(serialize_log(log).encode()))  # a serialized log never needs the line loop
        again = parse_log(serialize_log(log).encode())
        assert again == log
        for name in streams:
            for col in ("app_timestamp", "sensor_timestamp", "values", "accuracy"):
                assert getattr(getattr(again, name), col).tobytes() == getattr(getattr(log, name), col).tobytes()

    def test_serializer_rejects_separator_in_ssid(self):
        log = SensorLog(wifi=(WifiObservation(0.0, 0.0, "a;b", "aa:bb:cc:00:11:22", 2412, -60),))
        with pytest.raises(ValueError):
            serialize_log(log)


def _ref_serialize_log(log):
    """The serializer before it formatted records in runs: every line string
    at once, ordered, then joined."""
    times, lines = [], []
    for tag, (name, _) in logio._SAMPLE_TAGS.items():
        s = getattr(log, name)
        times.append(s.app_timestamp)
        columns = (c.tolist() for c in (s.app_timestamp, s.sensor_timestamp, s.values, s.accuracy))
        lines += [f"{tag};{t!r};{ts!r};{';'.join(map(repr, v))};{acc}" for t, ts, v, acc in zip(*columns)]
    for w in log.wifi:
        lines.append(
            f"WIFI;{float(w.app_timestamp)!r};{float(w.sensor_timestamp)!r};{w.ssid};{w.bssid};{w.frequency_mhz};{w.rssi_dbm}"
        )
    times.append(np.array([w.app_timestamp for w in log.wifi], dtype=float))
    order = np.argsort(np.concatenate(times), kind="stable")
    body = "\n".join([lines[k] for k in order.tolist()])
    return body + "\n" if body else ""


class TestSerializeRuns:
    """serialize_log formats records in runs of the global time order; the
    text is the one-pass serializer's, whatever the run length."""

    @pytest.mark.parametrize("run", [1, 3, logio._SERIALIZE_RUN])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_one_pass_serializer_and_round_trips(self, run, data):
        times = st.integers(0, 4).map(lambda k: 0.25 * k)  # few distinct times: ties across streams
        finite = st.floats(allow_nan=False, allow_infinity=False)
        streams = {}
        for name, width in (("accel", 3), ("gyro", 3), ("magn", 3), ("baro", 1)):
            rows = data.draw(st.lists(st.tuples(times, finite, st.tuples(*[finite] * width),
                                                st.integers(-(2**63), 2**63 - 1)), max_size=8), label=name)
            app, sensor, values, codes = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
            streams[name] = SensorStream(app, sensor, np.reshape(values, (-1, width)), codes)
        wifi = data.draw(st.lists(st.builds(
            WifiObservation, times, finite, st.sampled_from(["", "ap", "café ☕"]),
            st.sampled_from(["aa:bb:cc:00:11:22", "02:00:00:00:01:00"]), st.integers(2400, 6000),
            st.integers(-120, 0)), max_size=5), label="wifi")
        log = SensorLog(**streams, wifi=tuple(wifi))
        with mock.patch.object(logio, "_SERIALIZE_RUN", run):
            text = serialize_log(log)
        assert text == _ref_serialize_log(log)
        again = parse_log(text.encode())
        assert again == SensorLog(**streams, wifi=tuple(sorted(wifi, key=lambda w: w.app_timestamp)))

    def test_default_corpus_log_matches_one_pass_serializer(self, default_corpus):
        _, log, _ = default_corpus[0]
        assert len(serialize_log(log).splitlines()) > 3 * logio._SERIALIZE_RUN
        assert serialize_log(log) == _ref_serialize_log(log)


class TestBoundedMemory:
    """Traced (tracemalloc) peaks on a default-corpus log of about 3.7 MB,
    15 chunks: the transient memory of parsing and serializing follows the
    chunk, not the log."""

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _columns_nbytes(log):
        return sum(getattr(getattr(log, name), c).nbytes for name in ("accel", "gyro", "magn", "baro")
                   for c in ("app_timestamp", "sensor_timestamp", "values", "accuracy"))

    def test_parse_peak_is_a_small_multiple_of_the_columns(self, corpus_dir):
        data = (corpus_dir / "phone-a.tsl").read_bytes()
        assert len(data) > 8 * logio._CHUNK
        log, peak = self._traced_peak(parse_log, data)
        columns = self._columns_nbytes(log)
        # measured: peak 4.0 MB against 2.18 MB of columns (1.8x) with the
        # chunked parse; 17.5 MB (8.0x) when the whole text was split at once
        assert peak < 3 * columns + logio._CHUNK

    def test_file_parse_peak_holds_no_whole_text(self, corpus_dir):
        """The read is inside the trace: turning the file's path into a
        SensorLog never holds the file's 3.7 MB of text at once."""
        path = corpus_dir / "phone-a.tsl"
        assert path.stat().st_size > 8 * logio._CHUNK
        log, peak = self._traced_peak(parse_log_file, path)
        columns = self._columns_nbytes(log)
        # the columns are 2.18 MB, so the bound is 6.8 MB; reading the
        # whole file first adds its 3.7 MB of bytes to the parse's 4.0 MB
        assert peak < 3 * columns + logio._CHUNK

    @pytest.mark.parametrize("edit", ["malformed-in-last-chunk", "spaced-accuracy-code"])
    def test_file_parse_peak_when_a_piece_takes_the_line_loop(self, edit, corpus_dir, tmp_path):
        """phone-a with a malformed record just before its last line, where
        the parse fails and that piece alone goes through the line loop; or
        with its middle accuracy code written ` 3`, which the bulk pass takes
        as int() does. The peak stays within the bound above."""
        good = corpus_dir / "phone-a.tsl"
        lines = good.read_bytes().splitlines(keepends=True)
        if edit == "malformed-in-last-chunk":
            lines.insert(len(lines) - 1, b"ACCE;1.0;1.0;0;x;9.8;3\n")
        else:
            mid = len(lines) // 2
            assert lines[mid].endswith(b";3\n")
            lines[mid] = lines[mid][:-3] + b"; 3\n"
        path = tmp_path / "phone-a.tsl"
        path.write_bytes(b"".join(lines))
        good_log = parse_log_file(good)
        columns = self._columns_nbytes(good_log)

        def parse():
            try:
                return parse_log_file(path)
            except TslParseError as exc:
                return str(exc)

        out, peak = self._traced_peak(parse)
        if edit == "malformed-in-last-chunk":
            assert out == f"line {len(lines) - 1}: unparsable ACCE component: 'x'"
        else:
            assert out == good_log
        # measured: 4.0 MB for both against the bound of 6.8 MB; 24.4 and
        # 23.8 MB when any failed check sent the whole file through the line loop
        assert peak < 3 * columns + logio._CHUNK

    def test_serialize_peak_is_a_small_multiple_of_the_text(self, default_corpus):
        _, log, _ = default_corpus[0]
        text, peak = self._traced_peak(serialize_log, log)
        # measured: peak 8.7 MB for 3.7 MB of text (2.3x) with runs of 4096
        # records; 14.2 MB (3.8x) with every line string at once
        assert peak < 2.7 * len(text)


class TestSensorStream:
    def test_row_view_len_and_truthiness(self):
        log = parse_log(b"ACCE;2.0;2.5;1;2;3;7\nACCE;1.0;1.5;4;5;6;8\n")
        assert len(log.accel) == 2 and log.accel and not log.gyro and len(log.baro) == 0
        assert log.accel[-1] == SensorSample(2.0, 2.5, (1.0, 2.0, 3.0), 7)
        assert log.accel[-1].app_timestamp - log.accel[0].app_timestamp == 1.0
        assert type(log.accel[0].accuracy) is int and type(log.accel[0].values[0]) is float
        with pytest.raises(IndexError):
            log.accel[2]

    def test_columns_are_read_only_copies(self):
        times = np.array([1.0, 0.0])
        s = SensorStream(times, times, np.ones((2, 3)), [3, 3])
        times[0] = 9.0
        assert s.app_timestamp.tolist() == [0.0, 1.0]
        for col in (s.app_timestamp, s.sensor_timestamp, s.values, s.accuracy):
            with pytest.raises(ValueError):
                col[0] = 0

    def test_shapes_and_dtypes(self):
        log = parse_log(b"PRES;1.0;1.0;1013.25;0\nGYRO;1.0;1.0;0;0;1;3\n")
        assert log.baro.values.shape == (1, 1) and log.gyro.values.shape == (1, 3)
        assert SensorLog().baro.values.shape == (0, 1) and SensorLog().accel.values.shape == (0, 3)
        assert log.baro.accuracy.dtype == np.int64
        big = parse_log(f"ACCE;1.0;1.0;0;0;9.8;{2**63 - 1}\n".encode())
        assert big.accel[0].accuracy == 2**63 - 1

    def test_rejects_ragged_columns_and_iteration(self):
        with pytest.raises(ValueError):
            SensorStream([0.0, 1.0], [0.0], np.zeros((2, 3)), [3, 3])
        with pytest.raises(ValueError):
            SensorStream([0.0], [0.0], [1013.0], [3])  # values must be 2-D
        with pytest.raises(TypeError):
            iter(stream([0.0], [(0.0, 0.0, 9.8)]))

    def test_equality_is_by_value(self):
        a = stream([0.0, 1.0], [(1, 2, 3), (4, 5, 6)])
        assert a == stream([0.0, 1.0], [(1, 2, 3), (4, 5, 6)])
        assert a != stream([0.0, 1.0], [(1, 2, 3), (4, 5, 7)])
        assert a != stream([0.0, 1.0], [(1, 2, 3), (4, 5, 6)], accuracy=0)
        assert a != ()


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


class TestPickling:
    """Parse workers send logs and documented parse errors to their parent
    pickled, at protocol 4 on Python 3.8-3.13 and 5 from 3.14."""

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_parse_error_keeps_line_number_and_message(self, protocol):
        exc = pickle.loads(pickle.dumps(TslParseError(7, "x"), protocol))
        assert type(exc) is TslParseError and exc.line_no == 7 and str(exc) == "line 7: x"

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_encoding_error_keeps_its_message(self, protocol):
        with pytest.raises(TslEncodingError) as raised:
            parse_log(b"ACCE;1.0;1.0;0;0;9.8;3\n\xff\n")
        exc = pickle.loads(pickle.dumps(raised.value, protocol))
        assert type(exc) is TslEncodingError and str(exc) == str(raised.value)

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_log_keeps_its_values_and_read_only_columns(self, protocol):
        log = _small_log()
        again = pickle.loads(pickle.dumps(log, protocol))
        assert again == log and again.source_id == "unit"
        for name in ("accel", "gyro", "magn", "baro"):
            for col in (getattr(again, name).app_timestamp, getattr(again, name).sensor_timestamp,
                        getattr(again, name).values, getattr(again, name).accuracy):
                with pytest.raises(ValueError):
                    col[...] = 0


def _two_vertex_graph():
    return ChainGraph(
        floor=2,
        vertices=(
            ChainVertex(0, 0.0, 0.0, 1.0, {"aa:bb:cc:00:11:22": -60}),
            ChainVertex(5, 3.5, -1.25, 4.0, None),
        ),
        edges=(ChainEdge(3.5, -1.25),),
    )


class TestChainGraphDocuments:
    def test_empty_sequence(self, tmp_path):
        out = tmp_path / "empty.json"
        write_chain_graphs([], out)
        assert out.read_bytes() == b'{\n "graphs": []\n}\n'
        assert parse_chain_graphs(out.read_text()) == []

    def test_one_graph_counts(self):
        doc = graphs_to_document([_two_vertex_graph()])
        assert len(doc["graphs"]) == 1
        assert len(doc["graphs"][0]["vertices"]) == 2
        assert len(doc["graphs"][0]["edges"]) == 1
        assert doc["graphs"][0]["floor"] == 2

    def test_round_trip_value_equality(self, tmp_path):
        out = tmp_path / "graphs.json"
        graph = _two_vertex_graph()
        write_chain_graphs([graph], out)
        parsed = parse_chain_graphs(out.read_bytes())
        assert parsed == [graph]


# quarter-unit grids make duplicate timestamps and exact ties common
_grid_times = st.lists(st.integers(-20, 20), max_size=12).map(lambda v: sorted(0.25 * x for x in v))


class TestNearestIndex:
    @given(
        src=_grid_times,
        query=st.lists(st.integers(-100, 100).map(lambda x: 0.125 * x), max_size=12),
        max_gap=st.one_of(st.none(), st.integers(0, 12).map(lambda x: 0.25 * x)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_argmin_oracle(self, src, query, max_gap):
        src_a = np.array(src, dtype=float)
        expected = []
        for q in query:
            if not src:
                expected.append(-1)
                continue
            dist = np.abs(src_a - q)
            k = int(np.argmin(dist))
            expected.append(-1 if max_gap is not None and dist[k] > max_gap else k)
        assert nearest_index(src, query, max_gap).tolist() == expected

    def test_tie_and_duplicates_resolve_to_lowest_index(self):
        src = [1.0, 1.0, 2.0, 3.0, 3.0]
        assert nearest_index(src, [1.5, 2.5, 9.0, -4.0]).tolist() == [0, 2, 3, 0]

    def test_empty_source_gives_minus_one(self):
        assert nearest_index([], [0.0, 1.0]).tolist() == [-1, -1]
