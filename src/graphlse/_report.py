"""Deterministic CSV output with a provenance header.

Every result file starts with comment lines carrying the tool version, a hash
of the originating configuration and a timestamp; two runs with the same
configuration, seed and number of BLAS threads differ at most in the timestamp
line.  The thread count is not pinned here: BLAS may split a matrix product
(the free path's sums of powers, say) differently over another number of
threads, and its last digits then change.

A value is written as ``format_value`` writes it: a float as Python's
``repr``, the shortest text that reads back to the same double, and any other
value as ``str``.  ``from_columns`` writes whole numpy columns and gives the
same bytes: it finds a float's shortest digits with Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) in 64-bit integer arithmetic,
for a block of values at once, and lays them out as ``repr`` does.
``repr`` is the oracle it is tested against.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from . import __version__


def config_hash(text: str) -> str:
    import hashlib  # here, not at import: a fresh process that only parses a config need not load it

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def format_value(v) -> str:
    # numpy scalars first: np.float64 is a float whose repr is "np.float64(...)"
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def from_columns(*data) -> Iterable[str]:
    """Rows from whole columns, as the text that ``write_csv`` writes.

    The text of every value is that of ``format_value``.  Each run of
    adjacent numpy float columns, read as doubles, is formatted in numpy by
    ``_float_rows``, which writes ``repr``'s bytes.  Any other numpy column
    is formatted by ``str`` of its ``tolist``, and a plain sequence by
    ``format_value``.
    """
    texts = []
    for is_float, cols in itertools.groupby(data, lambda col: hasattr(col, "dtype") and col.dtype.kind == "f"):
        if is_float:
            texts.append(_float_rows(list(cols)))
            continue
        for col in cols:
            texts.append(map(str, col.tolist()) if hasattr(col, "tolist") else map(format_value, col))
    return map(",".join, zip(*texts))


_BLOCK = 4096  # values formatted at once: larger blocks raise peak memory, smaller ones add numpy calls


def _float_rows(cols) -> list[str]:
    """The rows of float columns, each value as ``repr`` writes it, a block of rows at a time.

    A value gets six 64-bit words, byte i of a word being its bits 8i to
    8i + 7: the sign and the ``0.000`` prefix; the digits before the point;
    then the point, the digits after it, the exponent suffix and the
    separator.  Masks from tables cut the digits out of its 17 digits, so an
    unused byte is zero, and the zero bytes of a block are dropped at once.
    """
    import numpy as np

    pow10, groups4, heads, layouts, suffixes, specials = _tables()[3:]
    seps = np.full(len(cols), ord(","), np.uint64) << 48  # byte 6 of the last word
    seps[-1] = ord("\n") << 48
    table = np.stack(cols, axis=1, dtype=np.float64)
    step = max(1, _BLOCK // len(cols))
    rows = []
    for start in range(0, len(table), step):
        x = table[start:start + step].ravel()
        special = ~np.isfinite(x) | (x == 0.0)
        f, k = _shortest(np.where(special, 1.0, x))
        # the value is f 10^k = 0.d1 d2 ... dn 10^decpt, dn not 0
        ndig = np.searchsorted(pow10, f, side="right")
        decpt = ndig + k
        n = ndig.copy()
        z = np.flatnonzero(f % 10 == 0)
        fz = f[z]
        for j in (16, 8, 4, 2, 1):
            cut = fz % 10**j == 0
            fz = np.where(cut, fz // 10**j, fz)
            n[z] -= cut * j
        f *= pow10[17 - ndig]  # d1 ... d17
        first = groups4.take(f // 10**13) | groups4.take(f // 10**9 % 10**4) << 32
        second = groups4.take(f // 10**5 % 10**4) | groups4.take(f // 10 % 10**4) << 32
        # the point follows digit p, and the digits shown are d1 ... dv
        fixed = (decpt > -4) & (decpt <= 16)
        p = np.where(fixed, np.maximum(decpt, 0), 1)
        key = p * 18 + np.where(fixed & (decpt > 0), np.maximum(n, decpt + 1), n)
        suffix = suffixes.take(np.where(fixed, len(suffixes) - 1, decpt + 323))
        words = np.empty((len(x), 6), np.uint64)
        words[:, 0] = heads.take(np.signbit(x) * 5 + np.where(fixed & (decpt <= 0), 1 - decpt, 0))
        words[:, 1] = first & layouts[0].take(key)
        words[:, 2] = second & layouts[1].take(key)
        words[:, 3] = first & layouts[2].take(key) | layouts[5].take(key)
        words[:, 4] = second & layouts[3].take(key) | layouts[6].take(key)
        words[:, 5] = (f % 10 | ord("0")) & layouts[4].take(key) | suffix
        if special.any():
            y = x[special]
            words[special] = specials[np.where(np.isnan(y), 2, np.isinf(y) * 3 + np.signbit(y))]
        words.reshape(-1, len(cols), 6)[:, :, 5] |= seps
        rows += words.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return rows


@functools.cache
def _tables():
    """The formatter's constant tables, built on first use.

    For k in [-324, 292], Schubfach's g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1,
    with r such that 2^125 <= 10^-k 2^-r < 2^126, and r + 127.  Then, as
    words of ``_float_rows``, the powers of ten to 10^17; the 4-digit groups;
    the sign and prefix; by p * 18 + v, the masks of digits 1 to p and p + 1
    to v and the point after digit p; the exponent suffixes ``e-324`` to
    ``e+308`` and an empty one; and 0.0, -0.0, nan, inf and -inf.
    """
    import numpy as np

    def words(item, count):
        return [item >> 64 * i & 2**64 - 1 for i in range(count)]

    def text(*items):
        return np.array([int.from_bytes(item, "little") for item in items], np.uint64)

    g, r127 = [], []
    for k in range(-324, 293):
        r = (-k * 913_124_641_741 >> 38) - 125  # floor(log2(10^-k)) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
        r127.append(r + 127)
    low = [2 ** (8 * j) - 1 for j in range(18)]
    layouts = [
        [*words(low[p], 2), *words(low[max(v, p)] - low[p], 3), *words(ord(".") << 8 * (p - 1) if v > p > 0 else 0, 2)]
        for p in range(17)
        for v in range(18)
    ]
    digits = np.arange(10, dtype=np.uint64) + ord("0")
    pairs = (digits[:, None] | digits << 8).ravel()
    specials = np.zeros((5, 6), np.uint64)
    specials[:, 0] = text(b"0.0", b"-0.0", b"nan", b"inf", b"-inf")
    return (
        np.array([gk >> 63 for gk in g], np.uint64),
        np.array([gk & (2**63 - 1) for gk in g], np.uint64),
        np.array(r127),
        np.array([10**i for i in range(18)], np.uint64),
        (pairs[:, None] | pairs << 16).ravel(),
        text(*(sign + b"0.000"[:j] for sign in (b"", b"-") for j in (0, 2, 3, 4, 5))),
        np.array(layouts, np.uint64).T.copy(),
        text(*(b"\0e%+03d" % e for e in range(-324, 309)), b""),  # from byte 1 of the last word
        specials,
    )


def _shortest(x):
    """The shortest decimal f 10^k that reads back to each finite nonzero double, as ``repr`` picks it.

    Java's ``DoubleToDecimal.toDecimal`` (Schubfach) on uint64 arrays, with
    two changes that let ``repr`` write a single digit: one digit fewer is
    tried for every s, not only for s >= 100, and the smallest subnormals are
    not scaled by 10.  Products wrap mod 2^64 by design, so they stay array
    operations, which raise no overflow warning.
    """
    import numpy as np

    g1s, g0s, r127 = _tables()[:3]
    bits = x.view(np.uint64)
    t = bits & (2**52 - 1)
    bq = (bits >> 52) & 0x7FF
    cb = (t | (bq > 0).astype(np.uint64) << 52) << 2
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    # the spacing below a normal power of two is half that above it
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + r127[k + 324]).astype(np.uint64)
    g1, g0 = g1s[k + 324], g0s[k + 324]
    # 4 v 10^-k and the ends of its rounding interval, which is open for an odd significand
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - 2 + irregular) << h) + (t & 1)
    vbr = _rop(g1, g0, (cb + 2) << h) - (t & 1)
    s = vb >> 2
    # one multiple of 10^(k+1) alone in the interval is the shortest
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    # else s or s + 1: the one in the interval, or the closer, or the even one
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    mid = (s << 2) + 2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    return np.where(upin != wpin, sp10 + wpin * np.uint64(10), s + up), k


def _rop(g1, g0, cp):
    """Schubfach's rop: cp g 2^-127 rounded to odd, g = g1 2^63 + g0."""
    x1 = _mulhi(g0, cp)
    z = ((g1 * cp) >> 1) + x1
    return (_mulhi(g1, cp) + (z >> 63)) | ((z & (2**63 - 1)) != 0)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a b, from four 32-bit partial products."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & 0xFFFFFFFF)) >> 32)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence | str], meta: dict | None = None) -> None:
    """Write a CSV with provenance comments; a row is a sequence of values or, from ``from_columns``, its text."""
    import datetime
    lines = [f"# tool=graphlse {__version__}"]
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(f"# timestamp={datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(map(format_value, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, columns, rows
