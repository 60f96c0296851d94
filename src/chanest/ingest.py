"""Packet-log file format, sequence-number loss recovery and distance binning.

A packet log is one ``LOG_DTYPE`` array; NaN ``rssi_dbm`` marks a lost packet.
Its file is a CSV under ``HEADER``: CRLF lines, shortest round-trip floats,
an empty ``rssi_dbm`` field for a lost packet. The writer formats columns,
not rows: each distinct distance once, and the RSSI by one list ``repr``."""
from __future__ import annotations

import csv
import io
import itertools
import math
from array import array

import numpy as np

from .errors import ParseError
from .model import CensoredBin, db_to_linear

HEADER = ["seq", "distance_m", "rssi_dbm"]
LOG_DTYPE = np.dtype([("seq", np.int64), ("distance_m", np.float64),
                      ("rssi_dbm", np.float64)])
# Largest step between consecutive sequence numbers taken as lost packets.
# A larger step is a corrupt seq: inferring its losses would allocate one
# row per missing number.
MAX_SEQ_GAP = 10_000
# Largest RSSI accepted: its linear power 10 ** (rssi / 10) ~ 1.78e308 is a
# float; just above 10 * log10(float max) ~ 3082.547 dBm it overflows.
MAX_RSSI_DBM = 3082.5
# Characters of whole lines that parse_packet_log reads per block
BLOCK_CHARS = 1 << 16
# Rows that write_packet_log formats per write
WRITE_ROWS = 1 << 12
_HEADER_LINES = (",".join(HEADER) + "\r\n", ",".join(HEADER) + "\n")
# the characters of the numbers that write_packet_log writes
_NUMBER = b"0123456789.+-e"


def write_packet_log(stream, log: np.ndarray) -> None:
    """Write a log in the packet-log format to a text stream opened with
    ``newline=""``."""
    stream.write(",".join(HEADER) + "\r\n")
    for at in range(0, log.size, WRITE_ROWS):  # no strings for the whole log
        chunk = log[at:at + WRITE_ROWS]
        # each distinct distance once, by its bits: -0.0 and 0.0 differ
        bits, which = np.unique(chunk["distance_m"].view(np.int64),
                                return_inverse=True)
        dist = [repr(d) for d in bits.view(np.float64).tolist()]
        # a list's repr holds its items' reprs; a lost packet's NaN is ''
        seq = repr(chunk["seq"].tolist())[1:-1].split(", ")
        rssi = repr(chunk["rssi_dbm"].tolist())[1:-1].replace("nan", "")
        rows = zip(seq, map(dist.__getitem__, which.tolist()),
                   rssi.split(", "))
        stream.write("\r\n".join(map(",".join, rows)) + "\r\n")


def parse_packet_log(stream) -> np.ndarray:
    """Parse a packet-log CSV into a log in file order. Comment lines start
    with '#'. Malformed rows (a non-finite distance, a non-finite RSSI or
    one above ``MAX_RSSI_DBM`` among them), duplicate seqs and seq gaps
    above ``MAX_SEQ_GAP`` are reported together with their line numbers.
    A field longer than the ``csv`` module's limit is a ParseError naming
    its line. Open a file as ``encoding="utf-8-sig"``, which drops a leading
    byte-order mark, and ``errors="surrogateescape"``, so that bytes which
    are not UTF-8 reach the parser and make their row malformed.

    The stream is read in blocks of whole lines. A block as
    ``write_packet_log`` writes it is parsed in bulk; another goes through
    the ``csv`` row loop, which alone names bad lines, and so does the rest
    of the log after a block that holds a quote. Either way the result is
    the same."""
    logs, linenos, bad = [], [], []
    header_ok, read = False, 0  # read: lines so far
    for lines in iter(lambda: stream.readlines(BLOCK_CHARS), []):
        if not read and lines[0] in _HEADER_LINES:
            header_ok, read, lines = True, 1, lines[1:]
        rows = _bulk_rows(lines) if header_ok else None
        # csv.reader closes a quoted field left open at its last line, so
        # after a quote the row loop reads the rest of the log
        rest = rows is None and any('"' in line for line in lines)
        if rows is None:
            header_ok, rows, where, more = _row_loop(
                itertools.chain(lines, stream) if rest else lines, read,
                header_ok)
            bad += more
        else:  # one line a row
            where = np.arange(read + 1, read + 1 + rows.size)
        logs.append(rows)
        linenos.append(where)
        if rest:
            break
        read += len(lines)
    if not header_ok:
        raise ParseError("line 1: missing header row", lines=[1])

    log = np.concatenate(logs)  # one array per block read
    order = np.argsort(log["seq"], kind="stable")
    # sorted, so each step is in [0, 2**64): exact as uint64 where int64 wraps
    step = np.diff(log["seq"][order]).view(np.uint64)
    at = np.flatnonzero((step == 0) | (step > MAX_SEQ_GAP))
    lineno = np.concatenate(linenos)[order]
    bad = sorted({*bad, *lineno[at].tolist(), *lineno[at + 1].tolist()})
    if bad:
        raise ParseError(f"malformed rows, duplicate seqs or seq gaps above "
                         f"{MAX_SEQ_GAP} at lines {bad}", lines=bad)
    if not log.size:
        raise ParseError("no packet rows after the header")
    return log


def _bulk_rows(lines: list[str]) -> np.ndarray | None:
    """The rows of a block of whole lines, parsed in one ``np.loadtxt``
    call; None if the block is not as ``write_packet_log`` writes it or a
    row is malformed."""
    if not lines:
        return np.empty(0, LOG_DTYPE)
    text = "".join(lines)
    limit = csv.field_size_limit()
    if not (text.isascii() and text[-1] == "\n"
            and (len(text) <= limit or max(map(len, lines)) <= limit)):
        return None
    # Without its number characters each line must read ',,\r\n' (or ',,\n'
    # in every line). The header line ended in '\n', so the stream ends a
    # line at a '\n', and n lines with n '\n's, the last at the end, end in
    # one each.
    end = "\r\n" if text.endswith("\r\n") else "\n"
    if text.encode("ascii").translate(None, _NUMBER) \
            != f",,{end}".encode("ascii") * len(lines):
        return None
    try:  # an empty RSSI field is a lost packet
        rows = np.loadtxt(io.StringIO(text.replace(f",{end}", f",nan{end}")),
                          LOG_DTYPE, delimiter=",", comments=None,
                          quotechar=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    d, r = rows["distance_m"], rows["rssi_dbm"]
    if not np.all((d > 0) & (d < math.inf)) \
            or np.any((r > MAX_RSSI_DBM) | (r == -math.inf)):
        return None
    return rows


def _row_loop(lines, read: int, header_ok: bool):
    """Parse ``lines`` row by row with ``csv.reader``, the next lines of a
    log of which ``read`` lines are already read. Returns whether
    the header was seen, a log of the well-formed rows, their line numbers
    and the line numbers of the malformed ones."""
    seq, dist, rssi, where = array("q"), array("d"), array("d"), array("q")
    bad = []
    reader = csv.reader(lines)
    end = read  # lines up to the end of the last record
    try:
        for row in reader:
            # named by the line it starts on: a quoted field may span lines
            lineno, end = end + 1, read + reader.line_num
            # a blank line, one of only whitespace, or a comment
            if not row or row[0].lstrip().startswith("#") \
                    or (len(row) == 1 and not row[0].strip()):
                continue
            if not header_ok:
                if [c.strip() for c in row] != HEADER:
                    raise ParseError(
                        f"line {lineno}: expected header {','.join(HEADER)}",
                        lines=[lineno])
                header_ok = True
                continue
            try:
                s, d, r = row
                s, d = int(s), float(d)
                r = float(r) if r.strip() != "" else None
                if not (math.isfinite(d) and d > 0 and (
                        r is None or -math.inf < r <= MAX_RSSI_DBM)):
                    raise ValueError("distance must be positive, RSSI "
                                     "finite and at most MAX_RSSI_DBM")
                seq.append(s)  # OverflowError outside int64
            except (ValueError, OverflowError):
                bad.append(lineno)
                continue
            dist.append(d)
            rssi.append(math.nan if r is None else r)
            where.append(lineno)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        lineno = read + reader.line_num
        raise ParseError(f"line {lineno}: {exc}", lines=[lineno]) from None
    log = np.empty(len(seq), LOG_DTYPE)
    log["seq"], log["distance_m"], log["rssi_dbm"] = seq, dist, rssi
    return header_ok, log, np.asarray(where), bad


def infer_losses(log: np.ndarray) -> np.ndarray:
    """The rows missing between consecutive sequence numbers, in seq order,
    at distances interpolated between the packets around each gap. Losses
    before the first or after the last sequence number cannot be seen. A
    duplicate seq or a gap above MAX_SEQ_GAP raises ValueError."""
    if not log.size:
        raise ValueError("need at least one packet")
    known = log[np.argsort(log["seq"], kind="stable")]
    seq, dist = known["seq"], known["distance_m"]
    gap = np.diff(seq)
    step = gap.view(np.uint64)  # the parser's step: exact where int64 wraps
    if np.any(step == 0):
        raise ValueError("duplicate seq: a packet log's seqs must differ")
    if np.any(step > MAX_SEQ_GAP):
        raise ValueError(f"seq gap above MAX_SEQ_GAP={MAX_SEQ_GAP}")
    missing = gap - 1
    left = np.repeat(np.arange(gap.size), missing)
    k = np.arange(left.size) - np.repeat(np.cumsum(missing) - missing,
                                         missing) + 1
    lost = np.empty(left.size, LOG_DTYPE)
    lost["seq"] = seq[left] + k
    lost["distance_m"] = (dist[left]
                          + k / gap[left] * (dist[left + 1] - dist[left]))
    lost["rssi_dbm"] = np.nan
    return lost


def check_ld_step(ld_step: float) -> float:
    """Return ld_step if it is finite, > 0 and keeps the bin index
    10 log10(d) / ld_step, about -3233.06 / ld_step for the smallest
    subnormal distance d, finite: above about 1.8e-305. Else ValueError."""
    if not (0.0 < ld_step < math.inf and math.isfinite(
            10.0 * math.log10(math.ulp(0.0)) / ld_step)):
        raise ValueError(f"ld_step must be finite and above about 1.8e-305, "
                         f"got {ld_step!r}")
    return ld_step


def bin_by_ld(log: np.ndarray, ld_step: float,
              c_db: float) -> list[CensoredBin]:
    """Group a log's rows, with the losses that ``infer_losses`` finds in
    its seq gaps, into log-distance bins of width ld_step. An ld_step that
    ``check_ld_step`` refuses, a duplicate seq or a gap above MAX_SEQ_GAP
    raises its ValueError.

    A row counts as received when its ``db_to_linear`` power is above
    ``c_lin = db_to_linear(c_db)``, which every bin gets as its threshold;
    any other row, a power that rounds onto the threshold among them,
    counts as censored, matching the left-censoring model. Bin 'ld' is the
    lower edge of the cell. Each bin's observed samples stay in log order.
    """
    check_ld_step(ld_step)
    log = np.concatenate([log, infer_losses(log)]) if log.size else log
    cell = np.floor(10.0 * np.log10(log["distance_m"]) / ld_step + 1e-9)
    order = np.argsort(cell, kind="stable")
    cell, rssi = cell[order], log["rssi_dbm"][order]
    power, c_lin = db_to_linear(rssi), db_to_linear(c_db)
    received = power > c_lin  # False for a lost (NaN) row
    keys, first = np.unique(cell, return_index=True)
    bins = []
    for i, p, ok in zip(keys.tolist(), np.split(power, first[1:]),
                        np.split(received, first[1:])):
        obs = p[ok]
        bins.append(CensoredBin(ld=int(i) * ld_step, observed=obs,
                                r1=p.size - obs.size, c_lin=c_lin))
    return bins
