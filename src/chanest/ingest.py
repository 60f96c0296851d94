"""Packet-log file format, sequence-number loss recovery and distance binning.

A packet log is one ``LOG_DTYPE`` array; NaN ``rssi_dbm`` marks a lost packet.
Its file is a CSV under ``HEADER``: CRLF lines, shortest round-trip floats,
an empty ``rssi_dbm`` field for a lost packet."""
from __future__ import annotations

import csv
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


def write_packet_log(stream, log: np.ndarray) -> None:
    """Write a log in the packet-log format to a text stream opened with
    ``newline=""``."""
    stream.write(",".join(HEADER) + "\r\n")
    for at in range(0, log.size, 1 << 16):  # no Python rows for the whole log
        stream.writelines(f"{s},{d!r},{'' if r != r else repr(r)}\r\n"
                          for s, d, r in log[at:at + (1 << 16)].tolist())


def parse_packet_log(stream) -> np.ndarray:
    """Parse a packet-log CSV into a log in file order. Comment lines start
    with '#'. Malformed rows (a non-finite distance, a non-finite RSSI or
    one above ``MAX_RSSI_DBM`` among them), duplicate seqs and seq gaps
    above ``MAX_SEQ_GAP`` are reported together with their line numbers.
    A field longer than the ``csv`` module's limit is a ParseError naming
    its line. Open a file with ``errors="surrogateescape"`` so that bytes
    which are not UTF-8 reach the parser and make their row malformed."""
    seq, dist, rssi, lines = array("q"), array("d"), array("d"), array("q")
    bad = []
    header_ok = False
    reader = csv.reader(stream)
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].lstrip().startswith("#")):
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
            lines.append(lineno)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}",
                         lines=[reader.line_num]) from None
    if not header_ok:
        raise ParseError("missing header row", lines=[1])

    log = np.empty(len(seq), LOG_DTYPE)
    log["seq"], log["distance_m"], log["rssi_dbm"] = seq, dist, rssi
    order = np.argsort(log["seq"], kind="stable")
    # sorted, so each step is in [0, 2**64): exact as uint64 where int64 wraps
    step = np.diff(log["seq"][order]).view(np.uint64)
    at = np.flatnonzero((step == 0) | (step > MAX_SEQ_GAP))
    lineno = np.asarray(lines)[order]
    bad = sorted({*bad, *lineno[at].tolist(), *lineno[at + 1].tolist()})
    if bad:
        raise ParseError(f"malformed rows, duplicate seqs or seq gaps above "
                         f"{MAX_SEQ_GAP} at lines {bad}", lines=bad)
    if not log.size:
        raise ParseError("no packet rows after the header")
    return log


def infer_losses(log: np.ndarray) -> np.ndarray:
    """The rows missing between consecutive sequence numbers, in seq order,
    at distances interpolated between the packets around each gap. Losses
    before the first or after the last sequence number cannot be seen."""
    if not log.size:
        raise ValueError("need at least one packet")
    known = log[np.argsort(log["seq"], kind="stable")]
    seq, dist = known["seq"], known["distance_m"]
    gap = np.diff(seq)
    if np.any(gap > MAX_SEQ_GAP):
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


def bin_by_ld(log: np.ndarray, ld_step: float,
              c_db: float) -> list[CensoredBin]:
    """Group a log, received and lost rows together, into log-distance bins
    of width ld_step.

    A row counts as received when its ``db_to_linear`` power is above
    ``db_to_linear(c_db)``, the comparison ``CensoredBin`` makes; any other
    row, a power that rounds onto the threshold among them, counts as
    censored, matching the left-censoring model. Bin 'ld' is the lower edge
    of the cell. Each bin's observed samples stay in log order.
    """
    if ld_step <= 0:
        raise ValueError("ld_step must be > 0")
    cell = np.floor(10.0 * np.log10(log["distance_m"]) / ld_step + 1e-9)
    order = np.argsort(cell, kind="stable")
    cell, rssi = cell[order], log["rssi_dbm"][order]
    power = db_to_linear(rssi)
    received = power > db_to_linear(c_db)  # False for a lost (NaN) row
    keys, first = np.unique(cell, return_index=True)
    bins = []
    for i, p, ok in zip(keys.tolist(), np.split(power, first[1:]),
                        np.split(received, first[1:])):
        obs = p[ok]
        bins.append(CensoredBin(ld=int(i) * ld_step, observed=obs,
                                n_total=p.size, r1=p.size - obs.size,
                                c_db=c_db))
    return bins
