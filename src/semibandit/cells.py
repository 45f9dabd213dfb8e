"""CSV text of numeric NumPy columns: the bytes of ``%`` on every cell, made by array operations.

``rows`` lays out a block of rows in one reused buffer of uint64 words, with no
Python object per cell, and deleting the NULs gives the block's text.  An
encoder call costs tens of microseconds however few its cells, so each block
makes one call per encoder and field width, for all of its columns: a column
of few runs (equal bit patterns) sends only the first cell of each run, and a
column in which more than half the cells start a run sends every cell.  A row
is then laid out in pieces of whole words.  Each maximal run of adjacent
columns that hold one bit pattern in the block is one literal: their texts,
joined by their commas, with the newline if they end the row, NUL-padded and
broadcast into every row.  Every other column has a field per cell, its text
NUL-padded after the slot of the comma before it, copied from its call's
output or gathered by run index as one item of whole words.  A row that ends
in such a field ends in a newline word.  Late in an elimination run, where one
arm is played to the horizon, most columns are constant over a block, so the
rows that ``translate`` scans are shorter.

A ``%.17g`` cell with 1e-4 <= |x| < 1e8 takes its 17 digits from the exact
product |x| 10^k, held as its binary64 rounding p and p's error e, which
Dekker's two-product gives exactly (``_encode_floats``).  A ``%d`` cell in
[0, 1e8) takes its 8 digits from a table of 4-digit chunks (``_encode_ints``).
Zero, NaN and inf are fixed texts.  ``%`` formats every other cell
(``_percent``): other magnitudes, a product just outside [1e16, 1e17), and
any other int.  A column of any other spec or dtype is a ``TypeError``.
"""

from __future__ import annotations

import itertools

import numpy as np

# Tables of the encoders (_encode_floats, _encode_ints).  A cell's field is
# whole uint64 words of text bytes, NUL where it holds no character, and its
# byte 0 is the slot of the separator before the cell.  Each table is made as
# bytes and viewed as words, so the byte order of the machine does not matter.
# Veltkamp's split of a double into two halves of at most 26 bits, whose
# products are exact: high = c - (c - x), c = x (2^27 + 1); low = x - high
_SPLIT = 2.0**27 + 1
_POW10 = np.array([float(10**k) for k in range(22)])  # exact: 10^k = 2^k 5^k, 5^21 < 2^53
_POW10_HIGH = _POW10 * _SPLIT
_POW10_HIGH -= _POW10_HIGH - _POW10
_POW10_LOW = _POW10 - _POW10_HIGH
_POW10_INT = 10 ** np.arange(1, 8)
_digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # column c: the 4 digits of c < 10^4
_ascii = np.ascontiguousarray(_digits.T) + ord("0")
_ASCII4 = _ascii.view(np.uint32)[:, 0]
_SPREAD4 = np.zeros((10_000, 8), np.uint8)
_SPREAD4[:, 1::2] = _ascii  # each digit after the slot of a point
_SPREAD4 = _SPREAD4.view(np.uint64)[:, 0]
_group = np.arange(10_000)
_TRAILING4 = ((_group % 10 == 0) * 1 + (_group % 100 == 0) + (_group % 1000 == 0) + (_group == 0)).astype(np.uint8)
_LEAD = np.zeros((10, 8), np.uint8)
_LEAD[:, 7] = np.arange(ord("0"), ord("0") + 10)
_LEAD = _LEAD.view(np.uint64)[:, 0]
_LEADING = (np.arange(8) >= np.arange(7, -1, -1)[:, None]).astype(np.uint8) * 255  # row i: keep the last i + 1 bytes
_LEADING = _LEADING.view(np.uint64)[:, 0]
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
del _digits, _ascii, _group, _sign, _exp, _kept, _digit


def rows(line_format: str, columns, block: int):
    """Yield the rows of ``columns`` as ``line_format % row``, ``block`` rows per string.

    ``columns`` is a sequence of equal-length NumPy columns, each float64
    under ``%.17g`` or int64 under ``%d``, encoded by array operations
    (``_encoder``); any other column is a ``TypeError``.  Each block is laid
    out in one buffer (``_lay_out``), which is resized in place from block to
    block, and its NULs are deleted.
    """
    specs = line_format.rstrip("\n").split(",")
    encoders = [_encoder(spec, column) for spec, column in zip(specs, columns)]
    buf = bytearray()
    for s in range(0, len(columns[0]), block):
        _lay_out(buf, encoders, [column[s : s + block] for column in columns])
        yield buf.translate(None, b"\0").decode("ascii")


def _lay_out(buf: bytearray, encoders, cells) -> int:
    """Lay out the rows of one block of ``cells`` in ``buf``, resized to hold them; return the words of a row.

    The columns go to one call per (encoder, field width) (``_encode_runs``):
    every cell of a column in which more than half the cells start a run of
    equal bits, and only the run heads of the others.  Each maximal run of
    adjacent columns of one run each is one literal: their heads' texts, each
    after its comma, and the newline if they end the row, NUL-padded to whole
    words and broadcast into every row.  The newline is a literal of its own
    after any other last column.  Every other column has a field per cell,
    with the comma in byte 0 unless it is the first column: copied from its
    call's output, or gathered from its heads' fields by run index.  No view
    of ``buf`` outlives the call, so that the next block can resize it.
    """
    n = len(cells[0])
    calls = {}  # (encoder, field words) -> [column index]
    sent, starts = {}, {}  # by column: its cells sent, and where a run starts after cell 0 (None: all sent)
    for i, (c, e) in enumerate(zip(cells, encoders)):
        bits = c.view(np.int64)  # equal bits print as equal text; equal values need not (0.0, -0.0)
        starts[i] = bits[1:] != bits[:-1]
        runs = np.count_nonzero(starts[i]) + 1
        if runs > 1 and 2 * runs > n:
            sent[i], starts[i] = c, None
        else:
            sent[i] = np.concatenate((c[:1], c[1:][starts[i]]))
        calls.setdefault(e, []).append(i)
    fields = {}  # by column: the fields of its cells sent, each one item of the field's bytes
    for (encode, words), group in calls.items():
        fields.update(zip(group, _encode_runs(encode, words, [sent[i] for i in group])))
    pieces, literal = [], b""  # in row order: a column's index, or a literal's bytes
    for i in range(len(cells)):
        if len(sent[i]) == 1:  # one run
            literal += b"," * (i > 0) + fields[i][0].tobytes().replace(b"\0", b"")
            continue
        if literal:
            pieces.append(literal)
            literal = b""
        pieces.append(i)
    pieces.append(literal + b"\n")
    widths = [-(-len(p) // 8) if isinstance(p, bytes) else fields[p].itemsize // 8 for p in pieces]
    width = sum(widths)
    size = 8 * n * width
    if len(buf) > size:
        del buf[size:]
    else:
        buf.extend(bytes(size - len(buf)))
    words = np.frombuffer(buf, np.uint64).reshape(n, width)
    commas, start = [], 0
    for piece, w in zip(pieces, widths):
        out = _item(words[:, start : start + w])
        if isinstance(piece, bytes):
            out[...] = _item(np.frombuffer(piece.ljust(8 * w, b"\0"), np.uint64)[None])
        elif starts[piece] is None:
            out[...] = fields[piece]
        else:
            index = np.empty(n, np.intp)
            index[0] = 0
            np.cumsum(starts[piece], out=index[1:])
            out[...] = fields[piece][index]
        if start and not isinstance(piece, bytes):
            commas.append(8 * start)
        start += w
    words.view(np.uint8)[:, commas] = ord(",")
    return width


def _item(fields: np.ndarray) -> np.ndarray:
    """(n, w) uint64 fields viewed as n items of 8 w bytes, so that moving a field moves one item."""
    return fields.view(f"V{8 * fields.shape[1]}")[:, 0]


def _encoder(spec: str, cells: np.ndarray):
    """The array encoder of ``spec`` for ``cells`` and the words of its fields; TypeError if there is none."""
    if spec == "%.17g" and cells.dtype == np.float64:
        return _encode_floats, 4
    if spec == "%d" and cells.dtype == np.int64:
        low, high = cells.min(initial=0), cells.max(initial=0)
        return _encode_ints, 3 if low < 0 or high >= 10**8 else 2 if high >= 10**7 else 1
    raise TypeError(f"no array encoder for {spec!r} of {cells.dtype} cells")


def _encode_runs(encode, words: int, sent) -> list:
    """Encode the cells of every array in ``sent`` in one ``encode`` call; return each array's fields (``_item``)."""
    fields = np.empty((sum(map(len, sent)), words), np.uint64)
    encode(np.concatenate(sent), fields)
    fields = _item(fields)
    ends = list(itertools.accumulate(map(len, sent)))
    return [fields[start:end] for start, end in zip([0, *ends], ends)]


def _percent(spec: str, cells, words: int) -> np.ndarray:
    """``spec % cell`` of each cell, from byte 1 of a field of ``words`` words.

    One ``%`` formats every field, a NUL and the text left-justified in the
    rest, and the pad spaces become NULs (a ``%d`` or ``%.17g`` text holds no
    space and fits the width).
    """
    fields = (("\0%-" + str(8 * words - 1) + spec[1:]) * len(cells)) % tuple(cells.tolist())
    return np.frombuffer(fields.encode("ascii").translate(_SPACE_TO_NUL), np.uint64).reshape(len(cells), words)


def _encode_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%.17g`` fields of float64 cells into ``out``, (n, 4) uint64.

    %.17g prints |x| in [1e-4, 1e17) in fixed notation, from its 17-digit
    rounding N = round(|x| 10^k), 10^16 <= N < 10^17, k = 16 - floor(log10 |x|).
    For |x| in [1e-4, 1e8), 10^k (k <= 21) is a double, and the exact
    product |x| 10^k is p + e: p its binary64 rounding, and e its error,
    which Dekker's two-product gives exactly from |x| and 10^k each split
    into two halves of 26 bits (Veltkamp), so that every partial product is
    exact.  A p in [1e16, 1e17) is an even integer, so N = p + rint(e), and
    rint's ties to even are the ties of %.  N's digits are laid out with the
    point after digit 16 - k, or after "0." and k - 17 zeros, trailing
    fraction zeros dropped, and the sign.  Zero, NaN and inf are fixed texts.
    Every other cell goes to ``_percent``: other magnitudes, and a product
    outside [1e16, 1e17), where log10 is one off next to a power of ten.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e8)
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    p = a * _POW10[k]
    high = a * _SPLIT
    high -= high - a
    a -= high  # the low half
    ten_high, ten_low = _POW10_HIGH[k], _POW10_LOW[k]
    # e = ((x_high t_high - p) + x_high t_low + x_low t_high) + x_low t_low, 10^k = t_high + t_low; each step exact
    e = high * ten_high
    e -= p
    high *= ten_low
    ten_high *= a
    a *= ten_low
    e += high
    e += ten_high
    e += a
    fast &= (p < 1e17) & ((p - 1e16) + e >= 0)  # p - 1e16 is exact, so the sum has the sign of the product - 1e16
    n = p.astype(np.int64)
    n += np.rint(e).astype(np.int64)
    del a, p, e, high, ten_high, ten_low
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
    separator's slot.  Any other cell goes to ``_percent``, in 3 words.  The
    digits are made only for the cells in [0, 1e8).
    """
    slow = (v < 0) | (v >= 10**8)
    count = np.count_nonzero(slow)
    # a part that holds every cell or none is a slice: no gather or scatter
    fast = ~slow if 0 < count < v.size else slice(0 if count else None)
    slow = slow if count < v.size else slice(None)
    u = v[fast]
    high = u // 10_000
    digits = np.empty((u.size, 2), np.uint32)
    digits[:, 0] = _ASCII4[high]
    digits[:, 1] = _ASCII4[u - high * 10_000]
    out[:, :-1] = 0
    out[fast, -1] = digits.view(np.uint64)[:, 0] & _LEADING[np.searchsorted(_POW10_INT, u, side="right")]
    if count:
        out[slow] = _percent("%d", v[slow], out.shape[1])
