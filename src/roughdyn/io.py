"""Run artifacts: canonical config hashing, JSON reports, CSV series.

Every artifact embeds the hash of the fully resolved configuration so a
result is reproducible from its own header.  No timestamps or host info
anywhere: identical (config, seed) must give byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np

from .spectral import _row_blocks

__all__ = ["canonical_json", "config_hash", "write_report", "write_series"]


def canonical_json(payload) -> str:
    """Sorted, indented JSON with full-precision floats; numpy arrays and
    scalars are written as the python values their tolist() gives."""
    return json.dumps(payload, sort_keys=True, indent=1, default=lambda o: o.tolist())


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def write_report(path: str, config: dict, payload: dict) -> None:
    """JSON report carrying the resolved config and its hash."""
    doc = {"config": config, "config_hash": config_hash(config), "report": payload}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


# The CSV float format is Python's "%.17g": the 17-digit decimal D * 10^(E-16)
# nearest |x| (10^16 <= D < 10^17), laid out as %g does, in fixed notation
# for -4 <= E < 17 and as d.ddde+XX otherwise, trailing zeros and a bare
# point removed.  The vector path finds D and E for |x| in [2^-900, 2^900]
# from p = |x| * 10^(16-E) held as a double-double, whose error is below
# 1e-14; a value whose p lies within _MARGIN of a rounding tie or of the
# ends of [1e16, 1e17), and every value outside that range (0, inf, nan),
# is formatted by Python itself.
_VECTOR_RANGE = (2.0**-900, 2.0**900)
_MARGIN = 2.0**-20
_VELTKAMP = 2.0**27 + 1.0
_POW_MIN = -300  # the power table holds 10^k for k in [-300, 300]
# One value's record: sign, the "0.000" of fixed notation below 1, the
# first digit, a point, the other 16 digits, the exponent and the two
# separator bytes.  A keep-mask per value picks its bytes.
_RECORD = np.frombuffer(b"-0.000" + b"0." + b"0" * 16 + b"e+000,\n", np.uint8)
_WIDTH = _RECORD.size
_DIGITS, _EXPONENT, _SEP = 6, 24, 29
# layout classes: 0..20 fixed notation with E = class - 4, then the
# exponent notation with two and with three exponent digits
_CLASSES = 23
_FALLBACK_ROW = 2 * _CLASSES * 17
# the place of each row of digits: nine of D // 10^8, a zero row, then the
# eight of the rest
_DIGIT_PLACE = np.array([*range(1, 10), 0, *range(10, 18)], np.uint8)[:, None]


@functools.cache
def _format_tables():
    """(pow10, exponents, keep): the rows (10^k rounded, its Veltkamp halves,
    10^k minus the rounded power) for k in [-300, 300], built from exact
    integers; the "e+XXX" bytes of every E there; and the keep-masks of the
    records, one row per (sign, layout class, significant digits) and, for
    the strings Python formats, per length.  Built on the first write."""
    hi, lo = [], []
    for k in range(_POW_MIN, -_POW_MIN + 1):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            # int true division rounds correctly, and so does the remainder's
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    hi = np.array(hi)
    t = hi * _VELTKAMP
    big = t - (t - hi)
    pow10 = np.stack([hi, big, hi - big, np.array(lo)])
    exponents = np.frombuffer(
        b"".join(b"e%+04d" % e for e in range(_POW_MIN, -_POW_MIN + 1)), np.uint8
    ).reshape(-1, 5)

    col = np.arange(_WIDTH)
    slot = col - _DIGITS  # digit or point slot
    sign = np.arange(2)[:, None, None, None]
    cls = np.arange(_CLASSES)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    e = cls - 4
    fixed = cls <= 20
    small = fixed & (e < 0)
    # digits before the point; the point sits in slot `whole`
    whole = np.where(fixed & (e > 0), e + 1, 1)
    keep = (
        ((col == 0) & (sign == 1))
        | ((col >= 1) & (col < 2 - e) & small)
        | ((slot >= 0) & (slot < whole))
        | ((slot == whole) & (nd > whole) & ~small)
        | ((slot > whole) & (slot <= nd) & (col < _EXPONENT))
        | ((col >= _EXPONENT) & (col < _SEP) & ~fixed & ((col != _EXPONENT + 2) | (cls == 22)))
        | (col == _SEP)
    )
    length = np.arange(1, _EXPONENT + 1)[:, None]
    python = (col < length) | (col == _SEP)
    keep = np.concatenate([keep.reshape(-1, _WIDTH), python])
    for table in (pow10, exponents, keep):
        table.flags.writeable = False
    return pow10, exponents, keep


def _scaled(ax, e, pow10):
    """|x| * 10^(16-e) as a double-double (hi, lo): Dekker's exact product of
    |x| and the rounded power, plus |x| times the power's remainder."""
    k = -_POW_MIN + 16 - e
    a_big = ax * _VELTKAMP
    a_big -= a_big - ax
    a_small = ax - a_big
    p = ax * pow10[0].take(k)
    big, small = pow10[1].take(k), pow10[2].take(k)
    lo = a_big * big
    lo -= p
    lo += a_big * small
    lo += a_small * big
    lo += a_small * small
    lo += ax * pow10[3].take(k)
    return p, lo


def _decimal(x):
    """(D, E, ok): the 17 digits and the decimal exponent of each |x| on the
    vector path; ok is False where Python must format x."""
    pow10 = _format_tables()[0]
    ax = np.abs(x)
    ok = (ax >= _VECTOR_RANGE[0]) & (ax <= _VECTOR_RANGE[1])
    ax[~ok] = 1.5  # any finite stand-in: Python formats these values
    e = np.floor(np.log10(ax)).astype(np.int32)
    hi, lo = _scaled(ax, e, pow10)
    # log10 may be one off near a power of ten: move E until the exact p
    # lies in [1e16, 1e17)
    for _ in range(2):
        below = (hi - 1e16) + lo < 0
        above = (hi - 1e17) + lo >= 0
        off = np.flatnonzero(below | above)
        if not off.size:
            break
        e[off] += np.where(above[off], 1, -1).astype(np.int32)
        hi[off], lo[off] = _scaled(ax[off], e[off], pow10)
    # hi >= 2^53 is an integer, so D = hi + rint(lo)
    up = np.rint(lo)
    ok &= ((hi - 1e16) + lo >= _MARGIN) & ((hi - 1e17) + lo <= -_MARGIN)
    ok &= np.abs(np.abs(lo - up) - 0.5) >= _MARGIN
    d = hi.astype(np.int64)
    d += up.astype(np.int64)
    # 99999999999999999.5 and up round to 10^17: %g's exponent is one more
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, ok


def _format_piece(block, rec, mask):
    """The bytes of the rows of `block` as "%.17g" joined by "," and ended by
    "\\r\\n", built in the first block.size records of `rec`, whose
    separators are set for block's width, with `mask` as scratch."""
    _, exponents, keep = _format_tables()
    rows, cols = block.shape
    m = rows * cols
    x = block.ravel()
    rec, mask = rec[:m], mask[:m]
    d, e, ok = _decimal(x)
    # the 17 digits as rows, each half divided by 10 nine times
    halves = np.empty((2, m), np.int32)
    halves[0] = d // 10**8
    halves[1] = d - halves[0].astype(np.int64) * 10**8
    digits = np.empty((18, m), np.uint8)
    for i in range(8, -1, -1):
        q = halves // 10
        digits[i::9] = halves - q * 10
        halves = q
    nd = (np.not_equal(digits, 0).view(np.uint8) * _DIGIT_PLACE).max(axis=0)
    digits += ord("0")
    rec.T[_DIGITS] = digits[0]
    rec.T[_DIGITS + 2 : _DIGITS + 10] = digits[1:9]
    rec.T[_DIGITS + 10 : _EXPONENT] = digits[10:]
    rec[:, _EXPONENT:_SEP] = np.take(exponents, e - _POW_MIN, axis=0)
    fixed = (e >= -4) & (e <= 16)
    cls = np.where(fixed, e + 4, np.where(np.abs(e) < 100, 21, 22))
    key = ((np.signbit(x) * _CLASSES + cls) * 17 + nd) - 1
    # fixed notation from 10 up: the point moves right past E digits
    wide = np.flatnonzero(fixed & (e > 0))
    for k in np.flatnonzero(np.bincount(e[wide])):
        at = wide[e[wide] == k]
        rec[at, _DIGITS + 1 : _DIGITS + 1 + k] = rec[at, _DIGITS + 2 : _DIGITS + 2 + k]
        rec[at, _DIGITS + 1 + k] = ord(".")
    python = np.flatnonzero(~ok)
    for i in python:
        s = np.frombuffer(b"%.17g" % x[i], np.uint8)
        rec[i, : s.size] = s
        key[i] = _FALLBACK_ROW + s.size - 1
    np.take(keep, key, axis=0, out=mask, mode="clip")
    mask.reshape(rows, cols, _WIDTH)[:, -1, _SEP + 1] = True
    out = rec[mask]
    # restore the fixed bytes that moved points and Python's strings wrote
    for moved in (python, wide):
        rec[moved, : _DIGITS + 2] = _RECORD[: _DIGITS + 2]
    return out


def write_series(path: str, u, config: dict) -> None:
    """CSV time series of a SampledPath: a '# config_hash: ...' line, then
    `t, mode_1..mode_N` rows, each exactly `",".join("%.17g" % v for v in
    row) + "\\r\\n"`, the rows csv.writer writes.  Values are formatted by
    numpy in pieces of at most 4096; only a value Python's own formatting
    must settle costs a "%.17g" call: 0, inf, nan, |x| outside [2^-900,
    2^900], and |x| * 10^(16-E) within 2^-20 of a rounding tie or of 1e16
    or 1e17."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    names = ["t"] + [f"mode_{i + 1}" for i in range(u.n_modes)]
    cols = len(names)
    pieces = list(_row_blocks(u.n_nodes, 4 * cols))
    size = pieces[0].stop - pieces[0].start if pieces else 0
    rec = np.empty((size, cols, _WIDTH), np.uint8)
    rec[:] = _RECORD
    rec[:, -1, _SEP] = ord("\r")
    rec = rec.reshape(-1, _WIDTH)
    mask = np.empty(rec.shape, bool)
    times = u.times
    with open(path, "wb") as fh:
        fh.write(f"# config_hash: {config_hash(config)}\n".encode())
        fh.write((",".join(names) + "\r\n").encode())
        for rows in pieces:
            block = np.column_stack([times[rows], u.values[rows]])
            fh.write(_format_piece(block, rec, mask))
