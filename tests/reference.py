"""Textbook references for the tests, and a reference IDAK built on them.

Every algorithm here is the plain one that idak's fast paths replaced,
written once: the affine group law on y^2 = x^3 + x over F_p and its
double-and-add multiple, F_{p^2} arithmetic and the affine law over it,
the binary Miller loop with one line evaluation and one point update per
step and the final exponentiation as one power by (p^2 - 1)/q, the
[q]-walk membership test, brute-force multiples and discrete logs, the
curve point lifted from an x and the first one outside the subgroup, and
the NAF chain that idak's Miller loop walks.  On top of them sits IDAK as README's "Definitions"
states it: try-and-increment hashing onto the subgroup, extract, the
three pi variants, the shared secret in closed form and from the flows
alone, the session KDF and the forward-secure extra point, its check and
its key.

This module imports only value types from idak (tests/test_imports.py
checks it), so no test can compare idak with itself through it.  Pytest
does not collect it; test modules import it as `reference`.
"""

import hashlib
import random
from functools import cache

from idak.bilinear import INFINITY, GElem, GTElem
from idak.protocol import FlowMessage, PiVariant, SessionKey, SharedSecret

# ---------------------------------------------------------------------------
# the group law on E(F_p)
# ---------------------------------------------------------------------------


def negate(p, a):
    return a if a.is_identity() else GElem(a.x, -a.y % p)


def add(p, a, b):
    """a + b by the affine chord-and-tangent law."""
    if a.is_identity():
        return b
    if b.is_identity():
        return a
    if a.x == b.x:
        if (a.y + b.y) % p == 0:
            return INFINITY
        lam = (3 * a.x * a.x + 1) * pow(2 * a.y, -1, p) % p
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, p) % p
    x3 = (lam * lam - a.x - b.x) % p
    return GElem(x3, (lam * (a.x - x3) - a.y) % p)


def multiply(group, point, n):
    """[n]point for any integer n, by binary double-and-add."""
    if n < 0:
        point, n = negate(group.p, point), -n
    result, acc = INFINITY, point
    while n:
        if n & 1:
            result = add(group.p, result, acc)
        n >>= 1
        if n:
            acc = add(group.p, acc, acc)
    return result


def in_group(group, point):
    """Whether [q]point is the identity."""
    return multiply(group, point, group.q).is_identity()


def curve_points(p):
    """Every point of E(F_p), the identity first, by trying every x."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [INFINITY] + [GElem(x, y) for x in range(p) for y in roots.get((x * x * x + x) % p, [])]


def lift(group, x, negate=False):
    """The point of E(F_p) at the first x' >= x (mod p) whose x'^3 + x' is a
    square, with the root y = (x'^3 + x')^((p+1)/4), negated if asked."""
    p = group.p
    while True:
        rhs = (x * x * x + x) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            return GElem(x, -y % p if negate else y)
        x = (x + 1) % p


def outside_point(group):
    """The first point by x, lifted from x >= 1, outside the order-q subgroup."""
    points = (lift(group, x) for x in range(1, group.p))
    return next(point for point in points if not in_group(group, point))


def multiples(group, g):
    """[k]g for every k in [0, q), by repeated addition."""
    points = [INFINITY]
    for _ in range(group.q - 1):
        points.append(add(group.p, points[-1], g))
    return points


def dlog(group, base, target):
    """The k in [0, q) with [k]base = target, by repeated addition."""
    return multiples(group, base).index(target)


def naf(n):
    """The non-adjacent form of n > 0, most significant digit (1) first."""
    digits = []
    while n:
        digit = 2 - n % 4 if n & 1 else 0
        digits.append(digit)
        n = (n - digit) // 2
    return digits[::-1]


def naf_chain(group, left):
    """The chain the Miller loop walks for left over the NAF of q: for each
    digit after the leading 1, (digit, T, 2T), where T + T is then plus
    left, minus left or nothing, by the digit."""
    p, minus = group.p, negate(group.p, left)
    t = left
    for digit in naf(group.q)[1:]:
        doubled = add(p, t, t)
        yield digit, t, doubled
        t = add(p, doubled, left if digit > 0 else minus) if digit else doubled


# ---------------------------------------------------------------------------
# F_{p^2} = F_p(i), i^2 = -1, and the affine law over it
# ---------------------------------------------------------------------------


def fp2_mul(p, a1, b1, a2, b2):
    return (a1 * a2 - b1 * b2) % p, (a1 * b2 + a2 * b1) % p


def fp2_inv(p, a, b):
    d = pow(a * a + b * b, -1, p)
    return a * d % p, -b * d % p


def fp2_pow(p, a, b, e):
    """(a + b*i)^e for e >= 0, by square-and-multiply."""
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = fp2_mul(p, ra, rb, a, b)
        e >>= 1
        if e:
            a, b = fp2_mul(p, a, b, a, b)
    return ra, rb


def fp2_add(p, s, t):
    """(slope, s + t) on E(F_{p^2}), each point ((xa, xb), (ya, yb)) or None
    for the identity; the slope is None where the line is vertical or a
    point is the identity."""
    if s is None:
        return None, t
    if t is None:
        return None, s
    (sx, sy), (tx, ty) = s, t
    if sx == tx and ((sy[0] + ty[0]) % p, (sy[1] + ty[1]) % p) == (0, 0):
        return None, None  # t = -s, or a point of order 2 doubled
    if sx == tx:
        xx = fp2_mul(p, *sx, *sx)
        lam = fp2_mul(p, 3 * xx[0] + 1, 3 * xx[1], *fp2_inv(p, 2 * sy[0], 2 * sy[1]))
    else:
        lam = fp2_mul(p, ty[0] - sy[0], ty[1] - sy[1], *fp2_inv(p, tx[0] - sx[0], tx[1] - sx[1]))
    ll = fp2_mul(p, *lam, *lam)
    x3 = ((ll[0] - sx[0] - tx[0]) % p, (ll[1] - sx[1] - tx[1]) % p)
    m = fp2_mul(p, *lam, sx[0] - x3[0], sx[1] - x3[1])
    return lam, (x3, ((m[0] - sy[0]) % p, (m[1] - sy[1]) % p))


def fp2_multiply(p, point, n):
    """[n]point on E(F_{p^2}) for n >= 0, by binary double-and-add."""
    result, acc = None, point
    while n:
        if n & 1:
            result = fp2_add(p, result, acc)[1]
        n >>= 1
        if n:
            acc = fp2_add(p, acc, acc)[1]
    return result


def fp2_negate(p, point):
    return None if point is None else (point[0], (-point[1][0] % p, -point[1][1] % p))


def fp2_on_curve(p, point):
    if point is None:
        return True
    x, y = point
    xx = fp2_mul(p, *x, *x)
    return fp2_mul(p, *y, *y) == fp2_mul(p, *x, xx[0] + 1, xx[1])


# ---------------------------------------------------------------------------
# the modified Tate pairing
# ---------------------------------------------------------------------------


def line_value(p, a, b, xq, yq):
    """The line through a and b at the distorted point (-xq, i*yq); a
    vertical line counts as 1."""
    if a.is_identity() or b.is_identity():
        return 1, 0
    if a.x == b.x:
        if a is not b and (a.y + b.y) % p == 0:
            return 1, 0
        if a.y == 0:
            return 1, 0
        lam = (3 * a.x * a.x + 1) * pow(2 * a.y, -1, p) % p
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, p) % p
    return (lam * (xq + a.x) - a.y) % p, yq


def pairing(group, left, right):
    """e(left, right): the binary Miller loop over q, unfused, and the
    generic final power by (p^2 - 1)/q."""
    p, q = group.p, group.q
    if left.is_identity() or right.is_identity():
        return GTElem(1, 0, p)
    xq, yq = right.x, right.y
    fa, fb = 1, 0
    t = left
    for bit in bin(q)[3:]:
        la, lb = line_value(p, t, t, xq, yq)
        fa, fb = fp2_mul(p, fa, fb, fa, fb)
        fa, fb = fp2_mul(p, fa, fb, la, lb)
        t = add(p, t, t)
        if bit == "1":
            la, lb = line_value(p, t, left, xq, yq)
            fa, fb = fp2_mul(p, fa, fb, la, lb)
            t = add(p, t, left)
    return GTElem(*fp2_pow(p, fa, fb, (p * p - 1) // q), p)


# ---------------------------------------------------------------------------
# IDAK by README's definitions
# ---------------------------------------------------------------------------


def _bytes(identity):
    return identity.encode("utf-8") if isinstance(identity, str) else bytes(identity)


@cache
def hash_to_group(group, identity):
    """H(id): for counter = 0, 1, ..., x = SHA-256(0x01 || id || counter as 2
    bytes) mod p until x^3 + x is a nonzero square with root
    y = (x^3 + x)^((p+1)/4) and [h](x, y) is not the identity."""
    p = group.p
    for counter in range(1 << 16):
        digest = hashlib.sha256(b"\x01" + _bytes(identity) + counter.to_bytes(2, "big")).digest()
        x = int.from_bytes(digest, "big") % p
        t = (x * x * x + x) % p
        y = pow(t, (p + 1) // 4, p)
        if t and y * y % p == t:
            point = multiply(group, GElem(x, y), group.h)
            if not point.is_identity():
                return point
    raise AssertionError("no curve point for the identity")


def extract(group, alpha, identity):
    """(g_id, d_id) = (H(id), [alpha]H(id))."""
    g_id = hash_to_group(group, identity)
    return g_id, multiply(group, g_id, alpha)


def encode_point(group, point):
    """0x04 || x || y, each big-endian in the byte width of p."""
    width = (group.p.bit_length() + 7) // 8
    return b"\x04" + point.x.to_bytes(width, "big") + point.y.to_bytes(width, "big")


def decode_point(group, data):
    """The point that encode_point gave as data."""
    width = (group.p.bit_length() + 7) // 8
    return GElem(int.from_bytes(data[1:1 + width], "big"), int.from_bytes(data[1 + width:], "big"))


def encode_gt(z):
    width = (z.p.bit_length() + 7) // 8
    return z.a.to_bytes(width, "big") + z.b.to_bytes(width, "big")


def pi(params, first, second):
    """pi(first, second), never 0 (a 0 becomes 1).  hash-half: the low
    ceil(|q| / 2) bits of SHA-256(0x02 || first || second); first-only: of
    SHA-256(0x02 || first); xor-half: the low floor(|p| / 2) bits of the
    xor of the two x coordinates."""
    group = params.group
    if params.pi_variant is PiVariant.XOR_HALF:
        value = (first.x ^ second.x) % (1 << group.p.bit_length() // 2)
    else:
        material = encode_point(group, first)
        if params.pi_variant is PiVariant.HASH_HALF:
            material += encode_point(group, second)
        digest = hashlib.sha256(b"\x02" + material).digest()
        value = int.from_bytes(digest, "big") % (1 << (group.q.bit_length() + 1) // 2)
    return value or 1


def exponent(params, alpha, x, r_a, y, r_b):
    """(x + s_A)(y + s_B) alpha mod q, s_A = pi(R_A, R_B), s_B = pi(R_B, R_A):
    the power of e(g_A, g_B) that both parties' secret is, 0 where the
    exchange is degenerate."""
    s_a, s_b = pi(params, r_a, r_b), pi(params, r_b, r_a)
    return (x + s_a) * (y + s_b) * alpha % params.group.q


@cache
def _identity_pairing(group, id_a, id_b):
    return pairing(group, hash_to_group(group, id_a), hash_to_group(group, id_b))


def secret(params, alpha, id_a, id_b, x, r_a, y, r_b):
    """The shared secret e(g_A, g_B)^((x + s_A)(y + s_B) alpha)."""
    z = _identity_pairing(params.group, id_a, id_b)
    power = exponent(params, alpha, x, r_a, y, r_b)
    return SharedSecret(GTElem(*fp2_pow(z.p, z.a, z.b, power), z.p))


def session_key(params, sk, id_a, id_b, r_a, r_b):
    """SHA-256("idak-kdf-v1" || sk || id_A || id_B || R_A || R_B)."""
    group = params.group
    material = (b"idak-kdf-v1" + encode_gt(sk.value) + _bytes(id_a) + _bytes(id_b)
                + encode_point(group, r_a.r) + encode_point(group, r_b.r))
    return SessionKey(hashlib.sha256(material).digest())


@cache
def flow_session_key(params, alpha, id_a, id_b, r_a, r_b):
    """The session key of the exchange of points r_a and r_b, from alpha and
    the flows alone, with no discrete log: the secret is
    e(g_A^s_A R_A, g_B^s_B R_B)^alpha, which is
    e(g_A, g_B)^((x + s_A)(y + s_B) alpha) for R_A = g_A^x and R_B = g_B^y.
    None where that exponent vanishes, as a blend is then the identity."""
    group, p = params.group, params.group.p
    s_a, s_b = pi(params, r_a, r_b), pi(params, r_b, r_a)
    blend_a = add(p, multiply(group, hash_to_group(group, id_a), s_a), r_a)
    blend_b = add(p, multiply(group, hash_to_group(group, id_b), s_b), r_b)
    if blend_a.is_identity() or blend_b.is_identity():
        return None
    z = pairing(group, blend_a, blend_b)
    sk = SharedSecret(GTElem(*fp2_pow(p, z.a, z.b, alpha), p))
    return session_key(params, sk, id_a, id_b, FlowMessage(r_a), FlowMessage(r_b))


def pfs_extra(params, id_a, y):
    """The responder's extra point g_A^y, under its flow's y."""
    return multiply(params.group, hash_to_group(params.group, id_a), y)


def pfs_check(params, id_a, id_b, r_b, extra):
    """e(extra, g_B) = e(R_B, g_A): extra is g_A to the y of R_B = g_B^y."""
    group = params.group
    return (pairing(group, extra, hash_to_group(group, id_b))
            == pairing(group, r_b.r, hash_to_group(group, id_a)))


def pfs_key(params, sk, dh):
    """SHA-256(0x03 || dh || sk) for dh = g_A^(xy)."""
    material = b"\x03" + encode_point(params.group, dh) + encode_gt(sk.value)
    return SessionKey(hashlib.sha256(material).digest())


def ephemeral(group, rng: random.Random):
    """An exponent in [1, q), drawn as |q| random bits until one lies there."""
    while True:
        value = rng.getrandbits(group.q.bit_length())
        if 1 <= value < group.q:
            return value


def session(params, alpha, id_a, id_b, rng):
    """One honest exchange, A initiating: x, then y, drawn from rng, and
    both drawn again while the exponent of the secret vanishes.  Returns
    (x, R_A, y, R_B, secret), the flows as FlowMessages."""
    group = params.group
    while True:
        x, y = ephemeral(group, rng), ephemeral(group, rng)
        r_a = multiply(group, hash_to_group(group, id_a), x)
        r_b = multiply(group, hash_to_group(group, id_b), y)
        if exponent(params, alpha, x, r_a, y, r_b):
            sk = secret(params, alpha, id_a, id_b, x, r_a, y, r_b)
            return x, FlowMessage(r_a), y, FlowMessage(r_b), sk
