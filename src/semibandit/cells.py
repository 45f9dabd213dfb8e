"""CSV text of NumPy columns: the bytes of ``%`` on every cell, made by array operations.

``rows`` lays out a block of rows in one reused buffer of uint64 words, with no
Python object per cell: each cell in a field of whole words, its text
NUL-padded after the slot of the separator before it, and a newline word at
the end of each row.  Deleting the NULs gives the block's text.  An
encoder call costs tens of microseconds however few its cells, so a block's
columns of few runs (equal bit patterns) share calls: the first cell of each
run, from every such column, goes to one call per encoder and field width,
and each field is then laid out over its run as one item of whole words, a
broadcast for a column of one run and a gather by run index otherwise.  A
column in which more than half the cells start a run is encoded cell by cell.

A ``%.17g`` cell with 1e-4 <= |x| < 1e8 takes its 17 digits from s = |x| 10^k,
rounded once in long double (error at most 2^-64 s); rounding is monotone, so
s and the exact product round to the same integer unless s is a
half-integer (``_encode_floats``).  A ``%d`` cell takes its digits from a
table of 4-digit chunks: up to 8 in one word for a cell in [0, 1e8), else a
sign and up to 19 in three (``_encode_ints``).  Zero, NaN and inf are fixed
texts.  ``%`` formats every other cell (``_percent``): other magnitudes, an s
on a half-integer, every float where long double is not exact enough, and
columns of other types.
"""

from __future__ import annotations

import numpy as np

# Tables of the encoders (_encode_floats, _encode_ints).  A cell's field is
# whole uint64 words of text bytes, NUL where it holds no character, and its
# byte 0 is the slot of the separator before the cell.  Each table is made as
# bytes and viewed as words, so the byte order of the machine does not matter.
# _EXACT_LONGDOUBLE: long double is x87 extended (63 fraction bits) or IEEE
# binary128 (112), whose products are correctly rounded, and x87 arithmetic
# runs at full precision
_EXACT_LONGDOUBLE = bool(np.finfo(np.longdouble).nmant in (63, 112) and np.longdouble(1) + np.longdouble(2.0**-63) != 1)
_POW10_LONG = (10.0 ** np.arange(22)).astype(np.longdouble)  # exact: 10^k = 2^k 5^k, 5^21 < 2^53
_POW10_INT = 10 ** np.arange(1, 8)
_digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # column c: the 4 digits of c < 10^4
_ascii = np.ascontiguousarray(_digits.T) + ord("0")
_ASCII4 = _ascii.view(np.uint32)[:, 0]
_SPREAD4 = np.zeros((10_000, 8), np.uint8)
_SPREAD4[:, 1::2] = _ascii  # each digit after the slot of a point
_SPREAD4 = _SPREAD4.view(np.uint64)[:, 0]
_chunk = np.arange(10_000)
_TRAILING4 = ((_chunk % 10 == 0) * 1 + (_chunk % 100 == 0) + (_chunk % 1000 == 0) + (_chunk == 0)).astype(np.uint8)
_LEAD = np.zeros((10, 8), np.uint8)
_LEAD[:, 7] = np.arange(ord("0"), ord("0") + 10)
_LEAD = _LEAD.view(np.uint64)[:, 0]
_LEADING = (np.arange(8) >= np.arange(7, -1, -1)[:, None]).astype(np.uint8) * 255  # row i: keep the last i + 1 bytes
_LEADING = _LEADING.view(np.uint64)[:, 0]
# a 3-word %d field by (digits - 1): a mask that keeps the digits, and the sign before them
_POW10_WIDE = 10 ** np.arange(1, 19, dtype=np.uint64)
_WIDE_KEEP = (np.arange(24) >= np.arange(23, 4, -1)[:, None]).astype(np.uint8) * 255
_WIDE_KEEP = _WIDE_KEEP.view(np.uint64)
_WIDE_MINUS = np.zeros((19, 24), np.uint8)
_WIDE_MINUS[np.arange(19), np.arange(22, 3, -1)] = ord("-")
_WIDE_MINUS = _WIDE_MINUS.view(np.uint64)
_NEWLINE = np.array(b"\n", "S8").view(np.uint64)  # the word that ends a row
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")  # turns _percent's pad spaces into field padding
# A %.17g field is 4 words: the separator's slot; the sign, "0." and up to
# three zeros; digits 0-8, each but the last followed by the slot of a point;
# digits 9-16.  Layouts by (sign, exponent + 4, digits kept - 1): an AND mask
# over the digits, then an OR pattern of the other bytes, in two tables
_sign = np.arange(2)[:, None, None, None]
_exp = np.arange(-4, 8)[:, None, None]
_kept = np.arange(1, 18)[:, None]
_digit = np.arange(17)
_FLOAT_MASKS = np.zeros((2, 12, 17, 32), np.uint8)
_FLOAT_MASKS[..., np.r_[7:24:2, 24:32]] = (_digit < np.maximum(_kept, _exp + 1)) * 255
_FLOAT_MASKS = _FLOAT_MASKS.reshape(-1, 32).view(np.uint64)
_FLOAT_PATTERNS = np.zeros((2, 12, 17, 32), np.uint8)
_FLOAT_PATTERNS[..., 1:2] = _sign * ord("-")
_FLOAT_PATTERNS[..., 2:4] = (_exp < 0) * np.array([ord("0"), ord(".")])
_FLOAT_PATTERNS[..., 4:7] = (np.arange(3) < -_exp - 1) * ord("0")
_FLOAT_PATTERNS[..., 8:24:2] = ((_digit[:8] == _exp) & (_kept > _exp + 1)) * ord(".")
_FLOAT_PATTERNS = _FLOAT_PATTERNS.reshape(-1, 32).view(np.uint64)
_FLOAT_SPECIAL = np.zeros((5, 32), np.uint8)
_FLOAT_SPECIAL[:, 1:5] = np.array([b"0", b"-0", b"inf", b"-inf", b"nan"], "S4").view(np.uint8).reshape(5, 4)
_FLOAT_SPECIAL = _FLOAT_SPECIAL.view(np.uint64)
del _digits, _ascii, _chunk, _sign, _exp, _kept, _digit


def rows(line_format: str, columns, block: int):
    """Yield the rows of ``columns`` as ``line_format % row``, ``block`` rows per string.

    ``columns`` is a sequence of equal-length NumPy columns.  ``%.17g`` of
    float64 and ``%d`` of int64 are encoded by array operations
    (``_encoder``), any other column by ``%`` (``_percent``).  In each block,
    a column in which more than half the cells start a run of equal bits is
    encoded cell by cell; the run heads of the other columns are encoded
    together, in one call per (encoder, field width), and laid out over their
    runs (``_encode_runs``).
    """
    specs = line_format.rstrip("\n").split(",")
    encoders = [_encoder(spec, column) for spec, column in zip(specs, columns)]
    buf = bytearray()
    for s in range(0, len(columns[0]), block):
        cells = [column[s : s + block] for column in columns]
        texts = [_percent(spec, c) if e is None else None for spec, c, e in zip(specs, cells, encoders)]
        ends = np.cumsum([e[1] if t is None else t.shape[1] for e, t in zip(encoders, texts)])
        n, width = len(cells[0]), int(ends[-1]) + 1
        if len(buf) != 8 * n * width:
            buf = bytearray(8 * n * width)
        words = np.frombuffer(buf, np.uint64).reshape(n, width)
        runs = {}  # (encoder, field words) -> [(cells, where a run starts after cell 0, fields)]
        for c, e, t, start, end in zip(cells, encoders, texts, [0, *ends], ends):
            if t is not None:
                words[:, start:end] = t
                continue
            bits = c.view(np.int64)  # equal bits print as equal text; equal values need not (0.0, -0.0)
            starts = bits[1:] != bits[:-1]
            if 2 * (np.count_nonzero(starts) + 1) > n:
                e[0](c, words[:, start:end])
            else:
                runs.setdefault(e, []).append((c, starts, words[:, start:end]))
        for (encode, field_words), group in runs.items():
            _encode_runs(encode, field_words, group)
        words.view(np.uint8)[:, 8 * ends[:-1]] = ord(",")
        words[:, -1] = _NEWLINE
        yield buf.translate(None, b"\0").decode("ascii")


def _encoder(spec: str, cells: np.ndarray):
    """The array encoder of ``spec`` for ``cells`` and the words of its fields, or None: ``%`` formats them."""
    if spec == "%.17g" and cells.dtype == np.float64:
        return _encode_floats, 4
    if spec == "%d" and cells.dtype == np.int64:
        low, high = cells.min(initial=0), cells.max(initial=0)
        return _encode_ints, 3 if low < 0 or high >= 10**8 else 2 if high >= 10**7 else 1
    return None


def _encode_runs(encode, words: int, group) -> None:
    """Encode the run heads of every column of ``group`` in one ``encode`` call, and lay each out over its runs.

    ``group`` holds ``(cells, starts, out)`` per column: ``starts[i]`` says
    whether cell i + 1 starts a run, and ``out`` takes the column's fields of
    ``words`` words.  Each field is handled as one item of ``8 * words``
    bytes: a column of one run is its head's field broadcast, and one of more
    runs is a gather of the heads' fields by run index.
    """
    heads = [np.flatnonzero(starts) + 1 for _, starts, _ in group]
    fields = np.empty((len(group) + sum(h.size for h in heads), words), np.uint64)
    encode(np.concatenate([np.concatenate((c[:1], c[h])) for (c, _, _), h in zip(group, heads)]), fields)
    item = np.dtype((np.void, 8 * words))
    fields = fields.view(item)[:, 0]
    first = 0
    for (_, starts, out), h in zip(group, heads):
        out = out.view(item)[:, 0]
        if h.size:
            index = np.empty(out.size, np.intp)
            index[0] = first
            np.cumsum(starts, out=index[1:])
            index[1:] += first
            out[...] = fields[index]
        else:
            out[...] = fields[first]
        first += 1 + h.size


def _percent(spec: str, cells, words: int = 0) -> np.ndarray:
    """``spec % cell`` of each cell, from byte 1 of a field of ``words`` words (0: the fewest that fit).

    A numeric fallback names its width: then one ``%`` formats every field,
    a NUL and the text left-justified in the rest, and the pad spaces become
    NULs (a ``%d`` or ``%.17g`` text holds no space and fits the width).
    """
    if words:
        fields = (("\0%-" + str(8 * words - 1) + spec[1:]) * len(cells)) % tuple(cells.tolist())
        return np.frombuffer(fields.encode("ascii").translate(_SPACE_TO_NUL), np.uint64).reshape(len(cells), words)
    text = np.array([spec % v for v in cells.tolist()], dtype=bytes)
    words = text.itemsize // 8 + 1
    fields = np.zeros((text.size, 8 * words), np.uint8)
    fields[:, 1 : 1 + text.itemsize] = text.view(np.uint8).reshape(text.size, text.itemsize)
    return fields.view(np.uint64)


def _encode_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%.17g`` fields of float64 cells into ``out``, (n, 4) uint64.

    %.17g prints |x| in [1e-4, 1e17) in fixed notation, from its 17-digit
    rounding N = round(|x| 10^k), 10^16 <= N < 10^17, k = 16 - floor(log10 |x|).
    For |x| in [1e-4, 1e8), s = |x| 10^k is taken in long double, where 10^k
    (k <= 21) is exact, so s is the exact product rounded once, with error at
    most 2^-64 s.  As rounding is monotone and s < 2^57 puts every
    half-integer on the long double grid, s above (below) a half-integer means
    the product is above (below) it too: s and the product round to the same
    N unless s is a half-integer itself.  N's digits are laid out with the
    point after digit 16 - k, or after "0." and k - 17 zeros, trailing
    fraction zeros dropped, and the sign.  Zero, NaN and inf are fixed texts.
    Every other cell goes to ``_percent``: other magnitudes, an s on a
    half-integer or outside [1e16, 1e17) (log10 may be one off next to a power
    of ten), and every cell where long double is not exact enough
    (``_EXACT_LONGDOUBLE``).
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e8) & _EXACT_LONGDOUBLE
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    s = a.astype(np.longdouble) * _POW10_LONG[k]
    n = s.astype(np.int64)
    # exact in x87 extended, where s < 2^57 has at most 10 fraction bits; from
    # binary128 the rounding is monotone, and a fraction rounded to 1/2 goes to %
    frac = (s - n).astype(np.float64)
    n += frac > 0.5
    fast &= (s >= 1e16) & (n < 10**17) & (frac != 0.5)
    del a, s, frac
    lead = n // 10**16  # digit 0; then the four 4-digit chunks, by // and a multiply-subtract
    high = n // 10**8 - lead * 10**8
    low = n % 10**8
    c1 = high // 10_000
    c2 = high - c1 * 10_000
    c3 = low // 10_000
    c4 = low - c3 * 10_000
    trailing = _TRAILING4[c4]  # zero digits at the end of n; c4 is seldom 0
    zero = np.flatnonzero(c4 == 0)
    if zero.size:
        c1z, c2z, c3z = c1[zero], c2[zero], c3[zero]
        trailing[zero] = 4 + np.where(c3z, _TRAILING4[c3z], 4 + np.where(c2z, _TRAILING4[c2z], 4 + _TRAILING4[c1z]))
    layout = (np.signbit(x) * 12 + 20 - k) * 17 + 16 - trailing
    fields = np.take(_FLOAT_MASKS, layout, axis=0, mode="clip")
    fields[:, 0] &= _LEAD[lead]
    fields[:, 1] &= _SPREAD4[c1]
    fields[:, 2] &= _SPREAD4[c2]
    halves = fields.view(np.uint32)
    halves[:, 6] &= _ASCII4[c3]
    halves[:, 7] &= _ASCII4[c4]
    np.bitwise_or(fields, np.take(_FLOAT_PATTERNS, layout, axis=0, mode="clip"), out=out)
    special = (x == 0) | ~np.isfinite(x)
    if special.any():
        xs = x[special]
        out[special] = _FLOAT_SPECIAL[np.where(np.isnan(xs), 4, 2 * np.isinf(xs) + np.signbit(xs))]
    slow = ~(fast | special)
    if slow.any():
        out[slow] = _percent("%.17g", x[slow], 4)


def _encode_ints(v: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%d`` fields of int64 cells into ``out``, (n, 1 to 3) uint64.

    A cell in [0, 1e8) is its 8 digits from two 4-digit chunks in the last
    word, leading zeros masked; one word holds cells below 1e7 after the
    separator's slot.  A negative cell or one of 1e8 or more needs 3 words
    (``_encode_wide_ints``).  Each kind of digits is made only for its cells.
    """
    wide = (v < 0) | (v >= 10**8)
    count = np.count_nonzero(wide)
    # a part that holds every cell or none is a slice: no gather or scatter
    narrow = ~wide if 0 < count < v.size else slice(0 if count else None)
    wide = wide if count < v.size else slice(None)
    u = v[narrow]
    high = u // 10_000
    digits = np.empty((u.size, 2), np.uint32)
    digits[:, 0] = _ASCII4[high]
    digits[:, 1] = _ASCII4[u - high * 10_000]
    out[:, :-1] = 0
    out[narrow, -1] = digits.view(np.uint64)[:, 0] & _LEADING[np.searchsorted(_POW10_INT, u, side="right")]
    if count:
        out[wide] = _encode_wide_ints(v[wide])


def _encode_wide_ints(v: np.ndarray) -> np.ndarray:
    """The 3-word ``%d`` fields of int64 cells: a sign and up to 19 digits, ending at the field's last byte.

    |v| is taken as uint64, which also holds 2^63; its digits are a chunk of
    3 and four of 4, leading zeros masked.
    """
    u = np.abs(v).view(np.uint64)
    top = u // 10**16
    low = u - top * 10**16
    middle = low // 10**8
    low -= middle * 10**8
    chunks = np.zeros((v.size, 6), np.uint32)  # bytes 0-3: the separator's slot, and room for the sign
    chunks[:, 1] = _ASCII4[top]
    for i, part in ((2, middle), (4, low)):
        high = part // 10_000
        chunks[:, i] = _ASCII4[high]
        chunks[:, i + 1] = _ASCII4[part - high * 10_000]
    kept = np.searchsorted(_POW10_WIDE, u, side="right")  # digits - 1
    fields = chunks.view(np.uint64) & _WIDE_KEEP[kept]
    fields |= _WIDE_MINUS[kept] * (v < 0)[:, None]
    return fields
