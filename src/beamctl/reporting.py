"""Deterministic file outputs: CSV tables and structured-text reports.

All numbers are written with 17 significant digits so a written value
parses back to the identical 64-bit float, and repeated runs of the same
configuration produce byte-identical files.  A CSV table is a 2-D float
array; each value is written as the bytes of `'%.17g' % x`.  `write_csv`
makes those bytes in blocks of whole rows with a numpy kernel
(`_format_block`): it rounds |x| * 10**(16 - e) to 17 digits through an
exact double-double product (Dekker, 1971) and lays the digits out with
table lookups.  The `%` operator, CPython's correctly rounded dtoa (Gay,
1990), formats only what the kernel leaves to it: NaN, infinities, |x|
outside [1e-270, 1e270) other than 0, and values whose remainder past
the 17th digit is within 1e-6 of a half (in units of that digit), where
the rounding could go either way.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .control import ControlSignal
from .dynamics import Trajectory
from .spectral import eigenvalues, energy_norms, reconstruct

__all__ = [
    "fmt",
    "write_csv",
    "trajectory_rows",
    "snapshot_rows",
    "control_rows",
    "write_report",
]

# How many snapshot times `snapshot_rows` spreads evenly over [0, T].
_SNAPSHOTS = 11


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], table) -> None:
    """The header, then the rows of the 2-D float `table`, `'%.17g'` per value.

    The rows go through `_format_block` about `_BLOCK_VALUES` values at a
    time, which writes the bytes of `'%.17g' % x` for every value and calls
    that operator itself for NaN, infinities, |x| outside [1e-270, 1e270)
    other than 0, and near-ties.  The file is written in binary, so lines end
    in `\\n` on every platform.  Ints and nested lists are converted to
    float; a table with no values gives the header alone, and one whose rows
    are not `len(header)` wide raises TypeError.
    """
    table = np.asarray(table, dtype=float)
    width = len(header)
    if table.size and (table.ndim != 2 or table.shape[1] != width):
        raise TypeError(f"a table of shape {table.shape} under a header of {width} columns")
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        if table.size:
            rows = max(1, _BLOCK_VALUES // width)
            words = np.empty((min(rows, len(table)) * width, _RECORD_WORDS), _WORD)
            for start in range(0, len(table), rows):
                f.write(_format_block(table[start : start + rows].ravel(), width, words))


# The block kernel.  A finite x != 0 is |x| = N * 10**(e - 16) rounded to
# the 17-digit integer N in [1e16, 1e17).  Its bytes go in a record of six
# little-endian 64-bit words, 48 bytes, whose unused slots hold the pad byte
# 0, which one `bytes.translate` removes:
#   bytes 0-5     the sign, then the slots of the fixed-notation prefix "0.000";
#   bytes 6-39    digit j at 6 + 2j, for j = 0..16, each followed by a slot
#                 for the decimal point;
#   bytes 40-44   the exponent "e+dd" or "e-ddd" of scientific notation;
#   byte 47       the separator, "," or "\n".
# The parts of a record never share a byte, so the words are sums of parts.
# N is carried as q * 1e8 + m with q and m float64 integers, so its digits
# come from float divisions that are exact on integers below 2**53.
_WORD = np.dtype("<i8")
_RECORD_WORDS = 6
_BLOCK_VALUES = 2048
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter of a 53-bit significand
# |x| the kernel formats: every product in `_scaled` stays finite and normal.
_LOW, _HIGH = 1e-270, 1e270
# Every decimal exponent e of that window, with its one-off correction.
_E_MIN, _E_MAX = -272, 271
# y is within 1e-14 of |x| * 10**(16 - e); a fraction this close to a
# half could round either way, so '%.17g' decides it.
_TIE = 0.5 - 1e-6


class _Tables(NamedTuple):
    """Lookup tables of the block kernel; `row` indexes them by e - _E_MIN."""

    pow10: tuple  # 10**(16 - e) as hi + lo, and hi's Veltkamp halves
    pairs: np.ndarray  # two-digit value -> its digits as two (digit, dot slot) byte pairs
    digit_flags: np.ndarray  # two-digit value -> 1 if its tens, + 2 if its units are not 0
    count_by_bit: np.ndarray  # frexp exponent of the flag word -> significant digits
    int_digits: np.ndarray  # per e: the digits fixed notation writes before the point
    layout_row: np.ndarray  # per e: 18 * its layout class (see `_build_tables`)
    layout: np.ndarray  # (class, digits written) -> words 0-4, '0' offsets but no digits
    tail: np.ndarray  # per e: word 5 without the separator, the exponent if any


def _build_tables() -> _Tables:
    """The kernel's tables, built once, on import (about 2 ms)."""
    # 10**p for p = 16 - e: hi = num/den correctly rounded, and lo = 10**p - hi
    # from hi's exact ratio m/d, (num*d - m*den) / (den*d), rounded once too.
    hi = np.empty(_E_MAX - _E_MIN + 1)
    lo = np.empty_like(hi)
    for row, p in enumerate(range(16 - _E_MIN, 15 - _E_MAX, -1)):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi[row] = num / den
        m, d = hi[row].as_integer_ratio()
        lo[row] = (num * d - m * den) / (den * d)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    # The small tables come from Python integers, so building them runs no
    # integer loop of numpy's that the rest of the package does not.
    pairs = np.array([t + u * 2**16 for t in range(10) for u in range(10)], "<u4")
    digit_flags = np.array([(t > 0) + 2 * (u > 0) for t in range(10) for u in range(10)], np.uint8)
    # The flag word holds pair q's flags in byte q.  Its top set bit 8q + s
    # says the last non-zero digit is 1 + 2q + s, so 2 + 2q + s digits count.
    count_by_bit = np.array([1] + [2 + 2 * (b // 8) + b % 8 for b in range(64)])
    # Layout classes: c = 0..16 puts the point after digit c when more digits
    # follow it (fixed notation with e = c, and scientific with c = 0); c = 16 + z
    # is the prefix "0." + (z - 1) zeros of fixed notation with e = -z.
    exponents = range(_E_MIN, _E_MAX + 1)
    int_digits = np.array([e + 1 if 0 <= e <= 16 else 0 for e in exponents])
    layout_row = np.array(
        [18 * (e if 0 <= e <= 16 else 16 - e if -4 <= e < 0 else 0) for e in exponents]
    )
    layout = np.zeros((21, 18, 40), np.uint8)
    for written in range(18):
        layout[:, written, 6 : 6 + 2 * written : 2] = ord("0")
        for c in range(written - 1):
            layout[c, written, 7 + 2 * c] = ord(".")
    for z in range(1, 5):
        layout[16 + z, :, 1 : 2 + z] = np.frombuffer(b"0." + b"0" * (z - 1), np.uint8)
    tail = np.zeros((len(exponents), 8), np.uint8)
    for row, e in enumerate(exponents):
        if not -4 <= e <= 16:
            text = b"e%+03d" % e
            tail[row, : len(text)] = np.frombuffer(text, np.uint8)
    return _Tables(
        (hi, hi_hi, hi - hi_hi, lo),
        pairs,
        digit_flags,
        count_by_bit,
        int_digits,
        layout_row,
        layout.view(_WORD).reshape(-1, 5),
        tail.view(_WORD).ravel(),
    )


# Built on import rather than at the first write: the tables then sit low in
# the heap, where they cannot keep the allocator from returning freed memory
# at its top to the system after a command.
_TABLES = _build_tables()


def _rows(e: np.ndarray) -> np.ndarray:
    return (e - _E_MIN).astype(np.intp)


def _scaled(a: np.ndarray, e: np.ndarray, pow10: tuple) -> tuple:
    """(q, m, f): y = a * 10**(16 - e) to within 1e-14 is q * 1e8 + m + f.

    q and m are integers, m in [0, 1e8), and f is in [-1/2, 1/2].  Dekker's
    product a * hi = ph + pl is exact; a * lo adds hi's remainder.  ph is
    at least 2**53, an integer, and q * 1e8 (at most 30 + 19 significant bits) is
    exact, so m is exact before and after it is brought into [0, 1e8).
    """
    hi, hi_hi, hi_lo, lo = (t.take(_rows(e)) for t in pow10)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    ph = a * hi
    t = (((a_hi * hi_hi - ph) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    r = np.floor(t + 0.5)
    q = np.floor(ph / 1e8)  # may be one too high
    m = (ph - q * 1e8) + r
    carry = np.floor(m / 1e8)
    return q + carry, m - carry * 1e8, t - r


def _off_decade(q: np.ndarray, m: np.ndarray, f: np.ndarray) -> tuple:
    """Where y = q * 1e8 + m + f is at least 1e17, and where it is below 1e16."""
    high = (q > 1e9) | (q == 1e9) & ((m > 0) | (f >= 0))
    low = (q < 1e8) | (q == 1e8) & (m == 0) & (f < 0)
    return high, low


def _split(v: np.ndarray, unit: float) -> np.ndarray:
    """v // unit and v % unit of the float integers v, stacked on a new last axis."""
    q = np.floor(v / unit)
    return np.stack([q, v - q * unit], axis=-1)


def _format_block(x: np.ndarray, width: int, words: np.ndarray) -> bytes:
    """`'%.17g' % v` for each value of `x`, whole rows of `width`, with separators.

    `words` is the record buffer, at least `x.size` rows of six `_WORD`s.
    """
    t = _TABLES
    words = words[: x.size]
    a = np.abs(x)
    bulk = (a >= _LOW) & (a < _HIGH)  # False for 0, NaN and inf
    a = np.where(bulk, a, 1.0)
    e = np.floor(np.log10(a))
    q, m, f = _scaled(a, e, t.pow10)
    # log10 may be one off next to a power of ten; those take one more pass.
    high, low = _off_decade(q, m, f)
    off = np.flatnonzero(high | low)
    if off.size:
        e[off] += np.where(high[off], 1.0, -1.0)
        q[off], m[off], f[off] = _scaled(a[off], e[off], t.pow10)
        high, low = _off_decade(q[off], m[off], f[off])
        bulk[off[high | low]] = False
    carry = q == 1e9  # 99999999999999999.5 and up round to the next decade
    q[carry] = 1e8
    e[carry] += 1.0
    row = _rows(e)
    # Digits: the first, then the two-digit pairs of the 16 others.
    first = np.floor(q / 1e8)
    halves = np.stack([q - first * 1e8, m], axis=-1)
    pairs = _split(_split(halves, 1e4), 100.0).reshape(x.size, 8).astype(np.intp)
    flags = t.digit_flags.take(pairs).view(_WORD).ravel()
    count = t.count_by_bit.take(np.frexp(flags.astype(float))[1])
    written = np.maximum(count, t.int_digits.take(row))
    layout = t.layout.take(t.layout_row.take(row) + written, axis=0)
    np.add(layout[:, 1:], t.pairs.take(pairs).view(_WORD), out=words[:, 1:5])
    # 0 is formatted as 1 and written with first digit 0 (bulk is False there).
    lead = (first * bulk).astype(_WORD) * 2**48 + np.signbit(x) * ord("-")
    np.add(layout[:, 0], lead, out=words[:, 0])
    separators = np.full(width, ord(",") * 2**56)
    separators[-1] = ord("\n") * 2**56
    np.add(t.tail.take(row).reshape(-1, width), separators, out=words[:, 5].reshape(-1, width))
    slow = np.flatnonzero((np.abs(f) > _TIE) | ~bulk & (x != 0))
    if slow.size:  # each fills its record up to the separator
        text = b"".join((b"%.17g" % v).ljust(47, b"\0") for v in x[slow].tolist())
        words.view(np.uint8)[slow, :47] = np.frombuffer(text, np.uint8).reshape(-1, 47)
    return words.tobytes().translate(None, b"\0")


def trajectory_header(n_modes: int) -> list[str]:
    return (
        ["t"]
        + [f"w_{i}" for i in range(1, n_modes + 1)]
        + [f"y_{i}" for i in range(1, n_modes + 1)]
        + ["norm_z"]
    )


def _with_marks(times: np.ndarray, values: np.ndarray, marks: dict) -> tuple:
    """`times` and `values` with each marked node's left limit inserted before it."""
    nodes = list(marks)
    left = np.array([marks[i] for i in nodes]).reshape((len(nodes),) + values.shape[1:])
    return np.insert(times, nodes, times[nodes]), np.insert(values, nodes, left, axis=0)


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """t, w, y, norm_z per node; jump nodes have two rows, left then right."""
    times, pairs = _with_marks(traj.times, traj.values, traj.left_values)
    norms = energy_norms(pairs, eigenvalues(traj.n_modes))
    return np.column_stack([times, pairs.reshape(len(pairs), -1), norms])


def snapshot_rows(traj: Trajectory, grid) -> np.ndarray:
    """Long-format physical snapshots: t, x, w(t, x), y(t, x)."""
    # The distinct nodes in ascending order, as np.unique gives them; np.unique
    # itself would import numpy.ma (about 0.9 MB) for its mask check.
    nodes = np.round(np.linspace(traj.n_history, traj.n_nodes - 1, _SNAPSHOTS)).astype(int)
    idx = np.array(sorted(set(nodes.tolist())))
    table = np.empty((idx.size, grid.nodes.size, 4))
    table[:, :, 0] = traj.times[idx, None]
    table[:, :, 1] = grid.nodes
    for row, i in enumerate(idx):
        table[row, :, 2:] = np.transpose([reconstruct(v, grid) for v in traj.values[i]])
    return table.reshape(-1, 4)


def control_rows(u: ControlSignal) -> np.ndarray:
    """t, u per node of an unmarked control."""
    u.require_unmarked("control_rows")
    return np.column_stack((u.times, u.values))


def write_report(path: Path, entries: list[tuple[str, object]]) -> None:
    """Structured text: one `key = value` line per entry."""
    lines = []
    for key, value in entries:
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            rendered = str(int(value))
        elif isinstance(value, str):
            rendered = value
        else:
            rendered = fmt(value)
        lines.append(f"{key} = {rendered}")
    Path(path).write_text("\n".join(lines) + "\n")
