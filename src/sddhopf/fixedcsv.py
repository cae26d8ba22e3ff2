"""The "%.17g" text of many floats at once, for the trajectory CSV.

Every field is printed exactly as "%.17g" % v prints it (correctly rounded,
D. M. Gay, 1990), a few numpy passes per block of rows. "%.17g" writes fixed
notation when the decimal exponent k of v rounded to 17 digits lies in
[-4, 16]: the 17 significant digits with the point after digit k (after "0."
and -k - 1 zeros when k < 0), trailing zeros of the fraction stripped, and
the point with them when none is left. An array holding any field that
prints otherwise (below 1e-4 or from 1e17 in size, subnormal, inf or nan)
is formatted by % itself. The CLI imports this module when it writes a
trajectory CSV; numpy is imported in the functions, as the package's import
boundary asks.
"""

import functools

BLOCK_ROWS = 512            # rows per pass, so the temporaries stay near 0.5 MB
_QUAD_ZEROS = 0x3030303030303030        # "00000000" as a little-endian word


@functools.cache
def decimal_tables():
    """10**m for m = 0..20 (exact doubles) with the halves of Dekker's split
    of each, and the four-digit groups "0000".."9999" as little-endian
    uint64 words."""
    import numpy as np

    pow10 = np.array([float(10 ** m) for m in range(21)])
    high = _split_high(pow10)
    i = np.arange(10000, dtype=np.uint64)
    quads = np.full(10000, 0x30303030, np.uint64)
    for byte, place in enumerate((1000, 100, 10, 1)):
        quads += i // np.uint64(place) % np.uint64(10) << np.uint64(8 * byte)
    return pow10, high, pow10 - high, quads


def _split_high(a):
    """The high half of Dekker's split of a: 26 significant bits, so the
    product of two halves is exact."""
    c = 134217729.0 * a         # 2**27 + 1
    return c - (c - a)


def _product(a, k, tables):
    """hi + lo = a 10**(16 - k) exactly (Dekker's product, T. J. Dekker,
    Numer. Math. 1971): hi the rounded product and lo its error."""
    pow10, p_high, p_low, _ = tables
    m = 16 - k
    ph, pl = p_high[m], p_low[m]
    hi = a * pow10[m]
    ah = _split_high(a)
    al = a - ah
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _significand(hi, lo):
    """hi + lo rounded half to even, as int64. Where hi + lo >= 10**16,
    hi >= 2**53 is an even integer, so that is hi + rint(lo)."""
    import numpy as np

    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def csv_lines(rows):
    """The (n, m) float array rows as n CSV lines, every field "%.17g" % v:
    in blocks of numpy passes where every field prints in fixed notation,
    and otherwise by % itself."""
    import numpy as np

    a = np.abs(rows)
    if not np.all((a >= 1e-4) & (a < 1e17) | (a == 0)):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return line * len(rows) % tuple(rows.ravel().tolist())
    seps = b"," * (rows.shape[1] - 1) + b"\n"
    tables = decimal_tables()
    return "".join([fixed_fields(rows[i:i + BLOCK_ROWS], seps, tables)
                    for i in range(0, len(rows), BLOCK_ROWS)])


def fixed_fields(block, seps, tables):
    """The "%.17g" text of the fields of block, each followed by its
    separator (seps, one byte per column), for fields that are 0 or lie in
    1e-4 <= |v| < 1e17, where "%.17g" writes fixed notation."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    v = block.ravel()
    n = len(v)
    a = np.abs(v)
    zero = a == 0
    # the exponent from log10 may be one too large just below a power of ten
    # and one too small where v rounds up to one; the exact product settles
    # both, and a rounding up to 10**17 moves to the next exponent
    k = np.floor(np.log10(np.where(zero, 1.0, a))).astype(np.intp)
    np.clip(k, -4, 16, out=k)
    hi, lo = _product(a, k, tables)
    d = _significand(hi, lo)
    low = ((hi < 1e16) | (hi == 1e16) & (lo < 0)) & ~zero
    move = (d >= 10 ** 17).astype(np.intp) - low
    redo = np.flatnonzero(move)
    if len(redo):
        k[redo] += move[redo]
        d[redo] = _significand(*_product(a[redo], k[redo], tables))

    # the 17 digits as three words of four-digit groups, "0000000" before
    # the first: digit i is byte 7 + i of the row
    words = np.empty((n, 3), np.int64)
    top = d // 10 ** 8
    words[:, 0] = top // 10 ** 8
    words[:, 1] = top - words[:, 0] * 10 ** 8
    words[:, 2] = d - top * 10 ** 8
    quads = tables[3]
    upper = words // 10 ** 4
    digits = quads[upper] | quads[words - upper * 10 ** 4] << np.uint64(32)
    # trailing zeros of d: zero bytes at the high end of the last two words
    raw = digits[:, 1:] - np.uint64(_QUAD_ZEROS)
    high_bit = np.frexp(raw.astype(float))[1]
    zero_bytes = np.where(raw == 0, 8, 7 - (high_bit - 1) // 8)
    tz = np.where(zero_bytes[:, 1] < 8, zero_bytes[:, 1], 8 + zero_bytes[:, 0])
    frac_digits = 16 - k
    kept = frac_digits - np.minimum(tz, frac_digits)

    # each field as int_width integer places, the point and frac_width
    # fraction places, cut from its digits padded with "0" on both sides
    kmin, kmax = int(k.min()), int(k.max())
    int_width, frac_width = max(kmax + 1, 1), 16 - kmin
    left = max(0, -(-(int_width - kmin) // 8) - 1)
    padded = np.full((n, left + 3 + -(-(kmax - kmin) // 8)), _QUAD_ZEROS, np.uint64)
    padded[:, left:left + 3] = digits
    row = padded.shape[1] * 8
    first = 8 * left + 7 - int_width + 1
    window = sliding_window_view(padded.view(np.uint8).ravel(), int_width + frac_width)
    cut = window[np.arange(0, n * row, row) + (first + k)]
    width = int_width + frac_width + 3
    text = np.empty((n, width), np.uint8)
    text[:, 1:1 + int_width] = cut[:, :int_width]
    text[:, 1 + int_width] = ord(".")
    text[:, 2 + int_width:2 + int_width + frac_width] = cut[:, int_width:]

    # a field is the bytes start..end of its row: the sign, its integer
    # digits, the point and the kept fraction digits, then its separator
    flat = text.ravel()
    base = np.arange(0, n * width, width)
    neg = np.signbit(v)
    start = int_width - np.maximum(k, 0) - neg
    flat[(base + start)[neg]] = ord("-")
    end = 1 + int_width + np.where(kept > 0, 1 + kept, 0)
    flat[base + end] = np.tile(np.frombuffer(seps, np.uint8), n // len(seps))
    cols = np.arange(width, dtype=np.uint8)
    keep = cols - start.astype(np.uint8)[:, None] <= (end - start).astype(np.uint8)[:, None]
    return text[keep].tobytes().decode("ascii")
