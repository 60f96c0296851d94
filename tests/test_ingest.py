import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chanest import ingest
from chanest.errors import ParseError
from chanest.ingest import (LOG_DTYPE, MAX_RSSI_DBM, MAX_SEQ_GAP, bin_by_ld,
                            infer_losses, parse_packet_log, write_packet_log)
from chanest.model import db_to_linear
from chanest.simulator import Scenario, packet_rows


def _parse(text):
    return parse_packet_log(io.StringIO(text))


def _log(rows):
    """Log from (seq, distance_m, rssi_dbm) rows; NaN RSSI is a loss."""
    return np.array(rows, dtype=LOG_DTYPE)


def _with_losses(log):
    return np.concatenate([log, infer_losses(log)])


HEADER = "seq,distance_m,rssi_dbm\n"


class TestParsePacketLog:
    def test_received_row(self):
        log = _parse(HEADER + "1,200,-85.2\n")
        assert log.dtype == LOG_DTYPE
        assert log.tolist() == [(1, 200.0, -85.2)]

    def test_explicit_loss_row(self):
        log = _parse(HEADER + "2,200,\n")
        assert log["seq"].tolist() == [2]
        assert log["distance_m"].tolist() == [200.0]
        assert np.isnan(log["rssi_dbm"]).all()

    def test_file_order_kept(self):
        log = _parse(HEADER + "3,100,-90\n1,100,-91\n2,100,\n")
        assert log["seq"].tolist() == [3, 1, 2]

    def test_comments_and_blank_lines_ignored(self):
        log = _parse("# a comment\n" + HEADER + "\n# another\n1,100,-90\n")
        assert len(log) == 1
        # lines of only spaces or tabs are blank too
        log = _parse(" \t\n" + HEADER + "   \r\n1,100,-90\n\t\n2,100,\n")
        assert log["seq"].tolist() == [1, 2]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            _parse("1,200,-85.2\n")
        # an empty log, or one of comments and blank lines only; a line of
        # only spaces is blank
        for text in ("", "# a comment\n\n# another\n",
                     "# a comment\n\n  \n"):
            with pytest.raises(ParseError, match="missing header row") as err:
                _parse(text)
            assert err.value.lines == [1]

    def test_no_rows(self):
        with pytest.raises(ParseError):
            _parse(HEADER)

    def test_malformed_rows_listed(self):
        text = HEADER + "1,100,-90\nx,100,-90\n3,-5,-90\n4,100,-80\n"
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert err.value.lines == [3, 4]

    def test_lines_after_quoted_line_break(self):
        # a record is named by the line it starts on, and a quoted field
        # carries record 1 over lines 2 and 3
        text = ('seq,distance_m,rssi_dbm\r\n1,"10\r\n0",-90\r\n2,abc,-90\r\n'
                "3,10,-90\r\n")
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert err.value.lines == [2, 4]

    @pytest.mark.parametrize("row", [
        "x,100,-90", "2,-5,-90", "2,inf,-90", "2,nan,-90", "2,100,inf",
        "2,100,-inf", "2,100,nan", "2,100,-90,0", "2,100", "2.5,100,-90",
        f"{2 ** 63},100,-90", "2,100,3082.6", "2,100,-9\udcff0", ",,",
        " , ", "2,1\x0c00,-90"])
    def test_malformed_row_kinds(self, row):
        with pytest.raises(ParseError) as err:
            _parse(HEADER + "1,100,-90\n" + row + "\n3,100,-80\n")
        assert err.value.lines == [3]

    def test_rssi_ceiling(self):
        log = _parse(HEADER + f"1,100,{MAX_RSSI_DBM!r}\n")
        with np.errstate(over="raise"):
            assert np.isfinite(10.0 ** (log["rssi_dbm"] / 10.0)).all()

    def test_oversized_field(self):
        field = "9" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match="line 3: field larger") as err:
            _parse(HEADER + "1,100,-90\n2,100," + field + "\n3,100,-80\n")
        assert err.value.lines == [3]

    def test_duplicate_seq(self):
        with pytest.raises(ParseError) as err:
            _parse(HEADER + "1,100,-90\n1,101,-91\n")
        assert set(err.value.lines) == {2, 3}

    def test_seq_gap_above_limit(self):
        text = HEADER + f"5,100,-90\n# x\n1,100,-90\n{10 ** 10},100,-80\n"
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert err.value.lines == [2, 5]

    def test_seq_gap_at_limit(self):
        log = _parse(HEADER + f"1,100,-90\n{1 + MAX_SEQ_GAP},100,-80\n")
        assert len(log) == 2

    def test_problems_reported_together(self):
        text = (HEADER + "1,100,-90\nx,1,1\n1,100,-90\n"
                f"{2 + MAX_SEQ_GAP},100,-90\n")
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert err.value.lines == [2, 3, 4, 5]


_rssi = st.one_of(st.just(math.nan),
                  st.floats(max_value=MAX_RSSI_DBM, allow_nan=False,
                            allow_infinity=False))


@st.composite
def _logs(draw):
    """Valid logs: distinct seqs no more than MAX_SEQ_GAP apart, in any
    order, positive finite distances, NaN RSSI or a finite one at most
    MAX_RSSI_DBM."""
    n = draw(st.integers(1, 30))
    start = draw(st.integers(-2 ** 62, 2 ** 62))
    steps = draw(st.lists(st.integers(1, MAX_SEQ_GAP), min_size=n - 1,
                          max_size=n - 1))
    seqs = draw(st.permutations(np.cumsum([start] + steps).tolist()))
    dists = draw(st.lists(st.floats(min_value=0.0, exclude_min=True,
                                    allow_infinity=False),
                          min_size=n, max_size=n))
    rssis = draw(st.lists(_rssi, min_size=n, max_size=n))
    return _log(list(zip(seqs, dists, rssis)))


class TestWritePacketLog:
    def test_format(self):
        out = io.StringIO()
        write_packet_log(out, _log([(1, 100.0, -90.5), (2, 0.1, math.nan)]))
        assert out.getvalue() == ("seq,distance_m,rssi_dbm\r\n"
                                  "1,100.0,-90.5\r\n2,0.1,\r\n")

    @staticmethod
    def _per_row_text(log):
        """The per-row formula the chunked writer must match."""
        return "seq,distance_m,rssi_dbm\r\n" + "".join(
            f"{s},{d!r},{'' if r != r else repr(r)}\r\n"
            for s, d, r in log.tolist())

    @settings(deadline=None)
    @given(log=_logs(), rows=st.integers(1, 7))
    def test_same_text_as_per_row_format(self, log, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "WRITE_ROWS", rows)  # chunk edges inside
            out = io.StringIO()
            write_packet_log(out, log)
        assert out.getvalue() == self._per_row_text(log)

    @pytest.mark.parametrize("rows", [[], [
        (2 ** 62, -0.0, 5e-324), (-2 ** 62, 0.0, 1e16), (5, -0.0, 1e-05),
        (6, 0.0, math.inf), (7, 5e-324, -math.inf), (8, 1e16, -0.0),
        (9, 1e-05, math.nan), (10, math.inf, -math.nan),
        (11, math.nan, 0.0), (12, -math.nan, -5e-324)]],
        ids=["empty", "edge-values"])
    def test_edge_values_as_per_row_format(self, rows):
        out = io.StringIO()
        write_packet_log(out, _log(rows))
        assert out.getvalue() == self._per_row_text(_log(rows))

    @settings(deadline=None)
    @given(_logs())
    def test_round_trip_bit_exact(self, log):
        out = io.StringIO()
        write_packet_log(out, log)
        back = parse_packet_log(io.StringIO(out.getvalue()))
        assert back.dtype == LOG_DTYPE
        np.testing.assert_array_equal(back["seq"], log["seq"])
        for field in ("distance_m", "rssi_dbm"):
            # NaN bits compare equal to NaN bits; other values bit for bit
            np.testing.assert_array_equal(back[field].view(np.int64),
                                          log[field].view(np.int64))


@contextlib.contextmanager
def _row_loop_only():
    """parse_packet_log with every line read by one csv row loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "BLOCK_CHARS", -1)  # readlines: every line
        mp.setattr(ingest, "_HEADER_LINES", ())
        mp.setattr(ingest, "_bulk_rows", lambda lines: None)
        yield


def _outcome(stream):
    """The bits of each field of the parsed log, or the ParseError's
    message and lines."""
    try:
        log = parse_packet_log(stream)
    except ParseError as exc:
        return str(exc), exc.lines
    return [log[f].view(np.int64).tolist() for f in LOG_DTYPE.names]


# fields that the row loop rejects or reads differently from a plain number
ODD_FIELDS = ["nan", "inf", "-inf", "1_0", " 5", "5 ", "", "+5", "007",
              "1e3", "5.0", "1.", ".5", "-", ".", "1e+", "1.2.3", "e",
              str(2 ** 63), str(-2 ** 63 - 1), "-9\udcff0", "0", "0.0",
              "-1.5", "1e-400", "1e400", "-1e400", "3082.6",
              "0" * csv.field_size_limit() + "5"]
ODD_LINES = ["# a comment", "", " \t", ",,", '7,"100\r\n5",-90', '8,"5']
SEQ_SHIFTS = [1, -1, MAX_SEQ_GAP + 1, -10 ** 12]
LINE_ENDS = ["\n", "\r"]
NEWLINES = [None, "", "\n", "\r", "\r\n"]  # of the StringIO read
AT = st.integers(0, 40)  # a line index, clamped to the log
LOG_MUTATION = st.one_of(
    st.tuples(st.just("insert"), AT, st.sampled_from(ODD_LINES)),
    st.tuples(st.just("field"), AT, st.integers(0, 2),
              st.sampled_from(ODD_FIELDS)),
    st.tuples(st.just("duplicate"), AT, AT),
    st.tuples(st.just("seq"), AT, st.sampled_from(SEQ_SHIFTS)),
    st.tuples(st.just("ends"), AT, st.sampled_from(LINE_ENDS)),
    st.tuples(st.just("no final newline")))


def _mutated_text(log, mutations):
    """A log as write_packet_log writes it, mutated line by line."""
    out = io.StringIO()
    write_packet_log(out, log)
    lines = out.getvalue().split("\r\n")[:-1]
    ends = ["\r\n"] * len(lines)
    for kind, *arg in mutations:
        at = min(arg[0], len(lines) - 1) if arg else 0
        if kind == "insert":
            lines.insert(at, arg[1])
            ends.insert(at, ends[at])
        elif kind == "field":
            fields = lines[at].split(",")
            fields[min(arg[1], len(fields) - 1)] = arg[2]
            lines[at] = ",".join(fields)
        elif kind == "duplicate":
            lines.insert(arg[1], lines[at])
            ends.insert(arg[1], ends[at])
        elif kind == "seq":
            seq, _, rest = lines[at].partition(",")
            with contextlib.suppress(ValueError):
                lines[at] = f"{int(seq) + arg[1]},{rest}"
        elif kind == "ends":
            ends[at:] = [arg[1]] * (len(ends) - at)
        else:
            ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestBulkParse:
    """Blocks as write_packet_log writes them skip the csv row loop; the
    result is the row loop's, whatever the input."""

    @staticmethod
    def _check(text, block, newline):
        with pytest.MonkeyPatch.context() as mp:
            # small blocks, so that a mutation lands in block k > 0
            mp.setattr(ingest, "BLOCK_CHARS", block)
            got = _outcome(io.StringIO(text, newline=newline))
            with _row_loop_only():
                want = _outcome(io.StringIO(text, newline=newline))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(log=_logs(), mutations=st.lists(LOG_MUTATION, max_size=4),
           block=st.sampled_from([1, 60, 200, 1 << 16]),
           newline=st.sampled_from(NEWLINES))
    def test_same_as_row_loop(self, log, mutations, block, newline):
        self._check(_mutated_text(log, mutations), block, newline)

    def test_each_mutation_after_bulk_blocks(self):
        log = _log([(s, 100.0 + s, -90.0 - s / 7) for s in range(1, 30)])
        mutations = [("insert", 20, line) for line in ODD_LINES] + [
            ("field", 20, col, f) for col in range(3) for f in ODD_FIELDS] \
            + [("duplicate", 5, 20), ("no final newline",)] \
            + [("seq", 20, shift) for shift in SEQ_SHIFTS] \
            + [("ends", 20, end) for end in LINE_ENDS]
        for mutation in mutations:
            text = _mutated_text(log, [mutation])
            for newline in NEWLINES:
                self._check(text, 100, newline)

    @pytest.mark.parametrize("strip_losses, end", [
        (False, "\r\n"), (True, "\r\n"), (False, "\n")])
    def test_cli_logs_skip_row_loop(self, tmp_path, monkeypatch,
                                    strip_losses, end):
        out = io.StringIO()
        write_packet_log(out, packet_rows(Scenario(n_per_bin=300, seed=3)))
        lines = out.getvalue().splitlines(keepends=True)
        assert sum(line.endswith(",\r\n") for line in lines) > 100
        if strip_losses:
            lines = [line for line in lines if not line.endswith(",\r\n")]
        path = tmp_path / "packets.csv"
        path.write_text("".join(lines).replace("\r\n", end), newline="")
        assert path.stat().st_size > 3 * ingest.BLOCK_CHARS

        def parse():  # as the CLI opens its --input
            with open(path, newline="", encoding="utf-8-sig",
                      errors="surrogateescape") as fh:
                return _outcome(fh)

        with _row_loop_only():
            want = parse()

        def no_row_loop(*args, **kwargs):
            raise AssertionError("a block went through the csv row loop")

        monkeypatch.setattr(ingest.csv, "reader", no_row_loop)
        assert parse() == want
        assert isinstance(want, list)

    def test_only_odd_blocks_take_row_loop(self, monkeypatch):
        out = io.StringIO()
        write_packet_log(out, packet_rows(Scenario(n_per_bin=300, seed=3)))
        lines = out.getvalue().splitlines(keepends=True)
        lines.insert(len(lines) // 2, "# receiver 7 moved\r\n")
        text = "# receiver 7\r\n" + "".join(lines)  # above the header
        assert len(text) > 3 * ingest.BLOCK_CHARS
        with _row_loop_only():
            want = _outcome(io.StringIO(text))
        readers, reader = [], csv.reader

        def counted(lines):
            readers.append(lines)
            return reader(lines)

        monkeypatch.setattr(ingest.csv, "reader", counted)
        assert _outcome(io.StringIO(text)) == want
        assert len(readers) == 2
        assert isinstance(want, list)

    @staticmethod
    def _check_bulk(text, block, monkeypatch):
        """The row loop's result, with no line read by the row loop."""
        with _row_loop_only():
            want = _outcome(io.StringIO(text, newline=""))
        monkeypatch.setattr(ingest, "BLOCK_CHARS", block)

        def no_row_loop(*args, **kwargs):
            raise AssertionError("a block went through the csv row loop")

        monkeypatch.setattr(ingest.csv, "reader", no_row_loop)
        assert _outcome(io.StringIO(text, newline="")) == want
        assert isinstance(want, list)

    def test_block_edge_between_cr_and_lf(self, monkeypatch):
        log = _log([(s, 100.0 + s, -90.0 - s / 7) for s in range(1, 30)])
        text = _mutated_text(log, [])
        header = len(",".join(ingest.HEADER) + "\r\n")
        # the first block's size hint ends on the '\r' of the first row
        self._check_bulk(text, text.index("\r", header) + 1 - header,
                         monkeypatch)

    def test_line_longer_than_block(self, monkeypatch):
        log = _log([(s, 100.0 + s, -90.0 - s / 7) for s in range(1, 30)])
        text = _mutated_text(log, [("field", 10, 1, "0" * 300 + "100.5")])
        self._check_bulk(text, 60, monkeypatch)

    def test_quoted_field_across_block_edge(self):
        log = _log([(s, 100.0 + s, -90.0 - s / 7) for s in range(1, 30)])
        text = _mutated_text(log, [("insert", 20, '7,"100\r\n5",-90')])
        for block in range(1, 120):  # every edge around the quoted field
            self._check(text, block, "")

    def test_lf_lines_in_crlf_stream(self, tmp_path, monkeypatch):
        # a stream opened with newline="\r\n" reads LF-ended lines as one
        log = _log([(s, 100.0 + s, -90.0 - s / 7) for s in range(1, 30)])
        path = tmp_path / "packets.csv"
        path.write_text(_mutated_text(log, [("ends", 20, "\n")]), newline="")
        monkeypatch.setattr(ingest, "BLOCK_CHARS", 100)

        def parse():
            with open(path, newline="\r\n") as fh:
                return _outcome(fh)

        with _row_loop_only():
            want = parse()
        assert parse() == want
        assert "new-line character seen in unquoted field" in want[0]


def _reference_losses(log):
    """The per-missing-seq loop the vectorised inference must match."""
    known = sorted(log.tolist())
    out = []
    for (sa, da, _), (sb, db, _) in zip(known, known[1:]):
        for s in range(sa + 1, sb):
            out.append((s, da + (s - sa) / (sb - sa) * (db - da)))
    return out


class TestInferLosses:
    def test_no_gaps(self):
        log = _log([(s, 100.0, -90.0) for s in (1, 2, 3)])
        losses = infer_losses(log)
        assert losses.dtype == LOG_DTYPE
        assert len(losses) == 0

    def test_interpolated_distances(self):
        log = _log([(1, 100.0, -90.0), (4, 106.0, -92.0)])
        losses = infer_losses(log)
        assert losses["seq"].tolist() == [2, 3]
        assert losses["distance_m"].tolist() == [102.0, 104.0]
        assert np.isnan(losses["rssi_dbm"]).all()

    def test_gap_counting_example(self):
        log = _log([(s, 100.0, -90.0) for s in (1, 2, 4, 5, 7)])
        assert len(infer_losses(log)) == 2

    def test_randomized_against_set_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            seqs = rng.choice(np.arange(1, 60), size=20, replace=False)
            log = _log([(int(s), float(rng.uniform(100, 2000)), -90.0)
                        for s in seqs])
            losses = infer_losses(log)
            want = (set(range(seqs.min(), seqs.max() + 1))
                    - set(seqs.tolist()))
            assert set(losses["seq"].tolist()) == want
            assert list(zip(losses["seq"].tolist(),
                            losses["distance_m"].tolist())) \
                == _reference_losses(log)

    def test_requires_records(self):
        with pytest.raises(ValueError):
            infer_losses(_log([]))

    def test_gap_guard(self):
        # one step too many: rejected before any row is allocated
        with pytest.raises(ValueError):
            infer_losses(_log([(1, 100.0, -90.0),
                               (2 + MAX_SEQ_GAP, 100.0, -90.0)]))
        # the largest step allowed
        assert infer_losses(_log([(1, 100.0, -90.0),
                                  (1 + MAX_SEQ_GAP, 100.0, -90.0)])).size \
            == MAX_SEQ_GAP - 1

    @pytest.mark.parametrize("seqs", [(-9, 2**63 - 9), (-2**63, 2**63 - 1)])
    def test_gap_guard_on_wrapped_step(self, seqs):
        # steps of 2**63 and 2**64 - 1 wrap in int64; measured as the
        # parser measures them, both are too large
        with pytest.raises(ValueError, match="MAX_SEQ_GAP=10000"):
            infer_losses(_log([(s, 100.0, -90.0) for s in seqs]))

    @pytest.mark.parametrize("seqs", [[1, 1, 3], [3, 1, 1, 2], [1, 1]])
    def test_duplicate_seq(self, seqs):
        # a sorted step of 0, as the parser measures it
        with pytest.raises(ValueError, match="duplicate seq"):
            infer_losses(_log([(s, 100.0, -90.0) for s in seqs]))


class TestOneSeqRule:
    """The parser and infer_losses accept and refuse the same seqs."""

    @staticmethod
    def _parse_written(log):
        out = io.StringIO()
        write_packet_log(out, log)
        return parse_packet_log(io.StringIO(out.getvalue()))

    @settings(max_examples=30, deadline=None)
    @given(log=_logs(), data=st.data())
    def test_duplicate_seq(self, log, data):
        assert self._parse_written(log).size == log.size
        infer_losses(log)
        assume(log.size >= 2)
        i, j = data.draw(st.lists(st.integers(0, log.size - 1), min_size=2,
                                  max_size=2, unique=True))
        dup = log.copy()
        dup["seq"][j] = dup["seq"][i]
        with pytest.raises(ParseError) as err:
            self._parse_written(dup)
        # row k is on line k + 2; a gap left by row j's old seq adds lines
        assert {i + 2, j + 2} <= set(err.value.lines)
        with pytest.raises(ValueError, match="duplicate seq"):
            infer_losses(dup)


class TestBinByLd:
    def test_every_bin_gets_the_threshold_it_split_at(self):
        c_db = -109.3
        bins = bin_by_ld(packet_rows(Scenario(n_per_bin=20, seed=3)), 0.5,
                         c_db)
        assert len(bins) > 1
        assert all(b.c_lin == db_to_linear(c_db) for b in bins)

    def test_bin_assignment(self):
        bins = bin_by_ld(_log([(1, 1000.0, -90.0)]), 0.5, -109.0)  # ld = 30
        assert len(bins) == 1
        assert bins[0].ld == 30.0

    def test_boundary_rssi_counts_as_censored(self):
        log = _log([(1, 1000.0, -109.0), (2, 1000.0, -80.0)])
        bins = bin_by_ld(log, 0.5, -109.0)
        assert bins[0].r1 == 1
        assert bins[0].observed.size == 1

    def test_power_rounding_onto_threshold_counts_as_censored(self):
        # above the threshold in dB, but its linear power rounds onto the
        # threshold's, so CensoredBin would reject it as received
        rssi = -119.49999999999999
        assert rssi > -119.5 and 10.0 ** (rssi / 10.0) == 10.0 ** -11.95
        bins = bin_by_ld(_log([(1, 1000.0, rssi), (2, 1000.0, -80.0)]),
                         0.5, -119.5)
        assert (bins[0].r1, bins[0].observed.size) == (1, 1)

    def test_logged_loss_counts_as_censored(self):
        bins = bin_by_ld(_log([(1, 1000.0, math.nan), (2, 1000.0, -80.0)]),
                         0.5, -109.0)
        assert (bins[0].n_total, bins[0].r1) == (2, 1)

    def test_conservation(self):
        rng = np.random.default_rng(10)
        rows = []
        seq = 1
        for _ in range(200):
            d = float(rng.uniform(100, 2000))
            rssi = float(rng.uniform(-120, -70))
            rows.append((seq, d, rssi))
            seq += int(rng.integers(1, 4))
        log = _log(rows)
        bins = bin_by_ld(_with_losses(log), 0.5, -109.0)
        total = sum(b.n_total for b in bins)
        assert total == rows[-1][0] - rows[0][0] + 1

    def test_reorder_stability(self):
        rng = np.random.default_rng(11)
        log = _log([(s, float(100 + 3 * s), float(rng.uniform(-120, -80)))
                    for s in range(1, 100)])
        shuffled = log.copy()
        rng.shuffle(shuffled)
        a = bin_by_ld(log, 0.5, -109.0)
        b = bin_by_ld(shuffled, 0.5, -109.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.ld == y.ld and x.n_total == y.n_total and x.r1 == y.r1
            np.testing.assert_array_equal(np.sort(x.observed),
                                          np.sort(y.observed))

    def test_observed_in_log_order(self):
        # rows of two bins interleaved; each bin keeps its rows' log order
        rssi = np.linspace(-80.0, -100.0, 200)
        dist = np.where(np.arange(200) % 2, 100.0, 1000.0)
        log = _log(list(zip(range(1, 201), dist, rssi)))
        bins = bin_by_ld(log, 0.5, -109.0)
        assert [b.ld for b in bins] == [20.0, 30.0]
        np.testing.assert_array_equal(bins[0].observed,
                                      10.0 ** (rssi[1::2] / 10.0))
        np.testing.assert_array_equal(bins[1].observed,
                                      10.0 ** (rssi[0::2] / 10.0))

    def test_losses_binned_at_interpolated_distance(self):
        log = _log([(1, 100.0, -90.0), (3, 1000.0, -95.0)])
        # seq 2 at 550 m, ld ~ 27.4
        bins = bin_by_ld(_with_losses(log), 0.5, -109.0)
        by_ld = {b.ld: b for b in bins}
        assert by_ld[math.floor(10 * math.log10(550) / 0.5) * 0.5].r1 == 1

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            bin_by_ld(_log([(1, 100.0, -90.0)]), 0.0, -109.0)
