import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanest.errors import ParseError
from chanest.ingest import (LOG_DTYPE, MAX_SEQ_GAP, bin_by_ld, infer_losses,
                            parse_packet_log, write_packet_log)


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

    def test_missing_header(self):
        with pytest.raises(ParseError):
            _parse("1,200,-85.2\n")

    def test_no_rows(self):
        with pytest.raises(ParseError):
            _parse(HEADER)

    def test_malformed_rows_listed(self):
        text = HEADER + "1,100,-90\nx,100,-90\n3,-5,-90\n4,100,-80\n"
        with pytest.raises(ParseError) as err:
            _parse(text)
        assert err.value.lines == [3, 4]

    @pytest.mark.parametrize("row", [
        "x,100,-90", "2,-5,-90", "2,inf,-90", "2,nan,-90", "2,100,inf",
        "2,100,-inf", "2,100,nan", "2,100,-90,0", "2,100", "2.5,100,-90",
        f"{2 ** 63},100,-90"])
    def test_malformed_row_kinds(self, row):
        with pytest.raises(ParseError) as err:
            _parse(HEADER + "1,100,-90\n" + row + "\n3,100,-80\n")
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
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _logs(draw):
    """Valid logs: distinct seqs no more than MAX_SEQ_GAP apart, in any
    order, positive finite distances, finite or NaN RSSI."""
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


class TestBinByLd:
    def test_bin_assignment(self):
        bins = bin_by_ld(_log([(1, 1000.0, -90.0)]), 0.5, -109.0)  # ld = 30
        assert len(bins) == 1
        assert bins[0].ld == 30.0

    def test_boundary_rssi_counts_as_censored(self):
        log = _log([(1, 1000.0, -109.0), (2, 1000.0, -80.0)])
        bins = bin_by_ld(log, 0.5, -109.0)
        assert bins[0].r1 == 1
        assert bins[0].observed.size == 1

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
