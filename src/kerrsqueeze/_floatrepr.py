"""``repr`` of every value of a float64 array, with numpy integer arithmetic.

``reprs(values)`` equals ``list(map(repr, values.tolist()))`` for finite
values. The digits are Schubfach's (R. Giulietti, "The Schubfach way to
render doubles", 2020) in its shortest form: the shortest decimal that
reads back as the double, the closest one if there are several, which is
what CPython's ``dtoa`` finds with bignums. The layout is CPython's
``format_float_short``. uint64 and int64 operands never meet in one
operation: numpy would promote the pair to float64 and drop bits.
"""

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_CHUNK = 4096  # values per pass: the temporaries stay in the cache


def _g_table() -> np.ndarray:
    """g = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126, for k = -324 .. 292, as
    rows (g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32) of g = g1 2^63 + g0."""
    g = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        r = p.bit_length() - 126
        g.append(((p >> r if r >= 0 else p << -r) if k <= 0 else (1 << (r + 251)) // p) + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)
    return np.stack([g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32])


_G = _g_table()
_POW = 10 ** np.arange(17, dtype=np.uint64)


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a b for a = ah 2^32 + al, b = bh 2^32 + bl, ah below
    2^31 and bh below 2^30 (so the middle sum cannot wrap)."""
    return ah * bh + ((ah * bl + al * bh + ((al * bl) >> _U(32))) >> _U(32))


def _rop(g, cp):
    """floor(g cp / 2^127) for cp < 2^62 (the shift h keeps it below 2^61),
    its last bit set where the rest is not zero: rounded to odd, as in Schubfach."""
    ch, cl = cp >> _U(32), cp & _M32
    z = ((g[0] * cp) >> _U(1)) + _mulhi(g[3], g[4], ch, cl)
    return (_mulhi(g[1], g[2], ch, cl) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(mag):
    """(d, e): d 10^e is the shortest, closest decimal of the positive doubles
    with bits ``mag`` (zero gives junk), and d has no trailing zero. vb is 4x
    the value scaled by 10^-k; lo and hi bound the scaled values that read back."""
    t = mag & _U(2**52 - 1)
    bq = mag >> _U(52)
    c = t | (bq != _U(0)) * _U(2**52)
    q = np.maximum(bq, _U(1)).view(np.int64) - 1075
    # the lower neighbour is half as far at a power of two above the subnormals
    closer = (t == _U(0)) & (bq > _U(1))
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = (q + 2 + ((-k * 913124641741) >> 38)).view(np.uint64)
    g = _G.take(k + 324, axis=1)
    cb = c << _U(2)
    odd = c & _U(1)  # the interval is open for odd c
    vb = _rop(g, cb << h)
    lo = _rop(g, (cb - _U(2) + closer) << h) + odd
    hi = _rop(g, (cb + _U(2)) << h) - odd
    s = vb >> _U(2)
    # one digit fewer: 10 s1 or 10 s1 + 10, if just one of them is inside
    s1 = s // _U(10)
    up = s1 * _U(40) + _U(40) <= hi
    short = ((lo <= s1 * _U(40)) != up) & (s >= _U(10))
    # else s or s + 1: the one inside, or the closer, ties to even
    s4 = s << _U(2)
    above = (vb & _U(3)) + (s & _U(1)) > _U(2)
    d = np.where(short, s1 + up, s + ((lo > s4) | (s4 + _U(4) <= hi) & above))
    k += short
    idx = np.flatnonzero((d % _U(10) == _U(0)) & (d != _U(0)))
    while idx.size:
        d[idx] //= _U(10)
        k[idx] += 1
        idx = idx[d[idx] % _U(10) == _U(0)]
    return d, k


def _tables():
    """A value's text is built in a row of 32 bytes, spaces around it: the
    digits of x = d 10^z right-aligned in the first 24, the last ``width``
    of them kept, and those after the first ``after`` moved one byte right
    for the point (after = 0: no point, all move); the exponent follows.

    Returns the digits of 0 .. 9999 as 4 bytes; for each layout
    2 (18 (clip(point, -4, 17) + 4) + n) + sign, with n digits in d (0: the
    value is zero), 10^z and the masks of the bytes that stay, that move
    and that are put (point, sign, spaces); and the suffixes "e-324" ..
    "e+308", then none, as the last 8 bytes."""
    point, n = np.ogrid[-4:18, :18]
    use_exp = (point <= -4) | (point > 16)
    z = np.where(use_exp, 0, np.maximum(point - n + 1, 0))
    width = np.where(use_exp, n, np.maximum(n, point + 1) + np.maximum(1 - point, 0))
    after = np.where(use_exp, n > 1, np.maximum(point, 1))
    z[:, 0], width[:, 0], after[:, 0] = 1, 2, 1  # "0.0"
    width, after = width[..., None, None], after[..., None, None]
    sign, col = np.ogrid[:2, :32]
    at = np.where(after > 0, 24 - width + after, -1)  # of the point
    first = np.where(after > 0, 24 - width, 25 - width)  # of the digits, after the move
    put = np.where(col < first, 32, np.where(col == at, 46, 0))
    put = np.where((col == first - 1) & (sign == 1), 45, put)
    stay = np.where((col >= first) & (col < at), 255, 0)
    move = np.where((col >= first) & (col > at) & (col < 25), 255, 0)
    pack = np.ascontiguousarray(np.indices((10,) * 4).reshape(4, -1).T + 48, dtype=np.uint8)
    suffix = b"".join(b"\0" + f"e{x:+03d}".ljust(7).encode() for x in range(-324, 309))
    return (pack.view(np.uint32)[:, 0], _POW.take(z.ravel()),
            *(np.broadcast_to(m, (22, 18, 2, 32)).astype(np.uint8).reshape(-1, 32).view("<u8")
              for m in (stay, move, put)),
            np.frombuffer(suffix + b"\0" + b" " * 7, dtype="<u8"))


_PACK, _SCALE, _STAY, _MOVE, _PUT, _SUFFIX = _tables()


def _render(bits):
    """The text of the finite doubles with these uint64 bits."""
    mag = bits & _M63
    d, e = _shortest(mag)
    zero = mag == _U(0)
    d[zero], e[zero] = 0, 1
    point = np.searchsorted(_POW, d, side="right") + e  # d 10^e = 0.<digits> 10^point
    layout = (np.clip(point, -4, 17) + 4) * 18 + (point - e)
    x = d * _SCALE.take(layout)
    layout = 2 * layout + (bits >> _U(63)).astype(np.intp)
    hi, lo = (half.astype(np.uint32) for half in np.divmod(x, _U(10**8)))
    rows = np.zeros((len(d), 4), dtype="<u8")
    digits = rows.view(np.uint32)
    top, hi = np.divmod(hi, 10**4)  # top < 10^5, as x < 10^17
    for col, group in enumerate((0, *np.divmod(top, 10**4), hi, *np.divmod(lo, 10**4))):
        digits[:, col] = _PACK.take(group)
    flat = rows.reshape(-1)
    moved = flat << _U(8)
    moved[1:] |= flat[:-1] >> _U(56)  # no carry across rows: their last word is 0
    rows &= _STAY.take(layout, axis=0)
    rows |= moved.reshape(-1, 4) & _MOVE.take(layout, axis=0)
    rows |= _PUT.take(layout, axis=0)
    rows[:, 3] |= _SUFFIX.take(np.where((point <= -4) | (point > 16), point + 323, 633))
    return rows.tobytes().decode("ascii").split()


def reprs(values: np.ndarray) -> list:
    """``repr`` of each value of a 1-D array of finite float64s."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    out: list = []
    for start in range(0, len(bits), _CHUNK):
        out += _render(bits[start:start + _CHUNK])
    return out
