"""Symmetric bilinear pairing over a toy supersingular curve.

The group G is the order-q subgroup of E(F_p) for the curve

    y^2 = x^3 + x   over F_p,   p = h*q - 1,   p = 3 (mod 4),

which is supersingular with exactly p + 1 points, so q | p + 1 and the
embedding degree is 2.  GT is the order-q subgroup of F_{p^2}^*, with
F_{p^2} = F_p[i] / (i^2 + 1); this quotient is a field precisely because
p = 3 (mod 4) makes -1 a non-residue.

The pairing is the modified Tate pairing

    e(P, Q) = f_{q,P}(phi(Q)) ^ ((p^2 - 1) / q),

where phi(x, y) = (-x, i*y) is a distortion map: it sends every point
of E(F_p) with y != 0 to a point of E(F_{p^2}) outside E(F_p).  Using phi
on the second argument makes the pairing symmetric and non-degenerate on
G x G, in particular e(P, P) != 1.

Following Barreto-Kim-Lynn-Scott (CRYPTO 2002), the final exponent is
split as (p - 1) * h.  The (p - 1) part is one conjugation and one F_p
inversion, and it maps every F_p^* factor of f to 1.  The Miller loop may
therefore skip vertical lines (denominator elimination) and scale each
line by an F_p^* factor, which lets it keep T in Jacobian coordinates and
invert nothing; each step uses one slope for both its line and its point
update.  The loop walks the non-adjacent form (NAF) of q (Hankerson-
Menezes-Vanstone, Guide to ECC, section 3.3), whose -1 digits add
-P = (x, -y) by the same formulas; at k = 128 a q has about 43 nonzero
NAF digits where its binary form has about 64.  Each doubling step
squares f unreduced inside its line product.

The group law is written once, in Jacobian coordinates, and every
point operation uses it, with one inversion back to affine; scalar_exp
walks the NAF of its exponent, as the Miller loop walks q's.  Points
used again and again (a party's own hashed identity and identity key, a
peer's hashed identity, the base point of a CBDH instance) are
multiplied through a fixed-base window table: its rows [j * 16^i]P are
built on first use, one batched inversion per row, and kept in a
bounded cache, and a walk adds one row entry per 4-bit digit of the
exponent, with no doubling; a walk may start at any point, which adds
that point for free.  Hashed identities are cached the same way.

A point is checked for the curve where it enters (decode_point,
take_point) and by each public function that computes on it: point_add,
scalar_exp, fixed_base_exp and pairing raise MalformedElementError, and
in_subgroup answers False.  pairing also refuses a left argument outside
the order-q subgroup, at no cost, as its Miller loop ends at [q]left; the
right one may be any curve point.  Encoders and the private helpers
(_affine_add, _window_walk, _fixed_base_add, _checked_pairing) trust
their points.

Setup proves both primes, and so does every decode of a params file.  q
is proved by the Baillie-PSW test (is_probable_prime): one gcd with the
product of the primes below 1000, one strong base-2 round and one strong
Lucas test (Baillie-Wagstaff, Math. Comp. 35, 1980; FIPS 186-4, appendix
C.3.3).  It is exact below 2^64, where Feitsma and Galway listed every
base-2 pseudoprime and none passes the Lucas test.  Above 2^64 no
composite is known to pass it.  That includes [2^64, psi_13), psi_13 ~
2^81.5, where Miller-Rabin to the 13 primes 2..41 would be exact: the
one test is kept there too.  Above psi_13 it replaces 40 Miller-Rabin
rounds with bases drawn from n, which the author of a crafted params file
could compute in advance.  Setup scans cofactors h divisible by 4, which
for odd q are exactly those with p = h*q - 1 = 3 (mod 4), and proves p
from q (_is_prime_given_q): the same gcd refuses a p with a small factor,
a strong base-2 round filters out most other composites, and the N+1
test in F_p[i], exact given q whenever q > sqrt(p) + 1, decides.

Parameter sizes here are deliberately small.  Nothing in this module is
safe for production use.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from math import gcd, isqrt, prod

from .errors import (
    HashToGroupError,
    InvalidIdentityError,
    MalformedElementError,
    ParameterSearchError,
)

# Domain tag for hashing identities onto the curve.
TAG_HASH_TO_GROUP = b"\x01"

# Search budgets.  Both are far beyond what the admissible sizes need.
# Setup scans cofactors h <= 2 * COFACTOR_CANDIDATE_BOUND, and the params
# decoder refuses a larger h.
COFACTOR_CANDIDATE_BOUND = 1 << 20
HASH_COUNTER_BOUND = 1 << 16

# Digit width of the fixed-base window table: HMV, Guide to ECC, section 3.3.
WINDOW_BITS = 4

# The supported sizes of q in bits, inclusive.  instance_generate,
# decode_group_params and the CLI's --k-bits all read this one pair.
_K_BITS_RANGE = (3, 512)


@dataclass(frozen=True)
class GroupParams:
    """Public curve parameters: p = h*q - 1 with q prime."""

    p: int
    q: int
    h: int

    @property
    def k_bits(self) -> int:
        """The size of q in bits."""
        return self.q.bit_length()


@dataclass(frozen=True)
class GElem:
    """Affine point on y^2 = x^3 + x, with (None, None) as the identity."""

    x: int | None
    y: int | None

    def is_identity(self) -> bool:
        return self.x is None


#: The point at infinity, shared by every parameter set.
INFINITY = GElem(None, None)


@dataclass(frozen=True)
class GTElem:
    """Element a + b*i of F_{p^2}.  Every element the package computes lies
    in GT, the order-q subgroup, so none is 0."""

    a: int
    b: int
    p: int

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0


# ---------------------------------------------------------------------------
# primality and parameter generation
# ---------------------------------------------------------------------------

def _primes_below(n: int) -> frozenset:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for d in range(2, isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    return frozenset(i for i, is_prime in enumerate(sieve) if is_prime)


# The primes below 1000, and their product: one gcd with it finds every
# factor below 1000.
_PRIMES_BELOW_1000 = _primes_below(1000)
_PRIMORIAL_1000 = prod(_PRIMES_BELOW_1000)

# How many a = 2, 3, ... the N+1 proof tries before it leaves p to
# Miller-Rabin.  Each a < 31 has a^2 + 1 < 1000, so once the gcd above
# passes, a + i and a - i are units mod every factor of p.
_N_PLUS_1_TRIES = 8


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: whether odd n > 3 is a strong probable prime to every
    base in bases, each in [2, n - 2]."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters (method A), for odd
    n > 1000.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  A square n has no such D, so it is refused first.  With
    n + 1 = d * 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for some
    r < s (mod n).  The sequences come from the ring Z_n[sqrt D]: there
    (1 + sqrt D)^k = 2^(k-1) * (V_k + U_k sqrt D), and 2 is a unit, so
    U_k and V_k vanish exactly where the coefficients of (1 + sqrt D)^k do.
    Each bit of d costs one squaring in the ring, and a one bit adds a
    multiplication by 1 + sqrt D, which is additions only.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if symbol == 0:  # D shares a factor with n
        return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    a, b = 1, 1  # a + b sqrt D
    for bit in bin((n + 1) >> s)[3:]:
        a, b = (a * a + D * b * b) % n, 2 * a * b % n
        if bit == "1":
            a, b = (a + D * b) % n, (a + b) % n
    if a == 0 or b == 0:
        return True
    for _ in range(s - 1):
        a, b = (a * a + D * b * b) % n, 2 * a * b % n
        if a == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: one strong base-2 round, then one strong Lucas test.

    n < 1000 is looked up, and a factor below 1000 is found by one gcd
    first.  Exact below 2^64; no composite is known to pass above it (see
    the module docstring).
    """
    if n < 1000:
        return n in _PRIMES_BELOW_1000
    if gcd(n, _PRIMORIAL_1000) != 1:
        return False
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _is_prime_given_q(p: int, q: int) -> bool:
    """Whether p is prime, for p = 3 (mod 4) and a prime q dividing p + 1.

    Exact given q.  A p below 1000, or with q <= isqrt(p) + 1, goes to
    is_probable_prime.  Any other p is refused if it has a factor below
    1000 (one gcd).  A strong base-2 round then filters out most other
    composites; it is cheaper than the proof, and no part of it.  The N+1
    test in F_p[i] decides the rest (Brillhart-Lehmer-Selfridge 1975;
    Crandall-Pomerance, Prime Numbers, section 4.2): with h = (p + 1) / q,
    take beta = (a + i)^h for the first a = 2, 3, ... with Im beta != 0;
    p is prime exactly when Im beta^q = 0.  If no a within
    _N_PLUS_1_TRIES has Im beta != 0, is_probable_prime decides.

    A prime p passes, since (a + i)^(p+1) = (a + i)(a - i) = a^2 + 1 for
    p = 3 (mod 4).  Conversely, let u = (a + i)/(a - i).  Every prime
    factor of p exceeds 1000 > a^2 + 1, so u is a unit modulo every prime
    power dividing p, and Im x = 0 exactly when x / conj(x) = 1.  Passing
    means u^h != 1 and u^(hq) = 1 (mod p), so some prime power r^e
    exactly dividing p has u^h != 1 (mod r^e).  If u^h != 1 (mod r), q
    divides the order of u mod r, which divides r - 1 or r + 1, so
    r = +-1 (mod q); then s = p / r = -+1 (mod q), since p = -1, and
    s <= p / (q - 1) < q - 1, since q - 1 > sqrt(p); so s = 1 and p is
    prime.  Otherwise u^h = 1 (mod r) but not (mod r^e), so u^h has an
    order that is a power of r and divides q: r = q, but q does not divide
    p.  No gcd of Im beta with p is needed, and for a prime p it is 1.

    The proof costs one power by h and one by q in F_p[i], about twice
    is_probable_prime's Lucas step at k = 128.
    """
    if p < 1000 or q <= isqrt(p) + 1:
        return is_probable_prime(p)
    if gcd(p, _PRIMORIAL_1000) != 1 or not _strong_probable_prime(p, (2,)):
        return False
    h = (p + 1) // q
    for a in range(2, 2 + _N_PLUS_1_TRIES):
        real, imag = _fp2_pow(p, a, 1, h)
        if imag:
            return _fp2_pow(p, real, imag, q)[1] == 0
    return is_probable_prime(p)


def instance_generate(k_bits: int, seed) -> GroupParams:
    """Deterministically derive curve parameters from a seed.

    Samples a prime q of exactly k_bits bits from the seeded stream, then
    scans cofactors h = 4, 8, ... until p = h*q - 1 is prime; for odd q,
    4 | h is exactly p = 3 (mod 4).  Skipping h divisible by q keeps q^2
    from dividing p + 1, so the q-part of E(F_p) is cyclic.
    """
    low, high = _K_BITS_RANGE
    if not low <= k_bits <= high:
        raise ValueError(f"k_bits must be in [{low}, {high}], got {k_bits}")
    rng = random.Random(seed)
    while True:
        q = (1 << (k_bits - 1)) | rng.getrandbits(k_bits - 1) | 1
        if is_probable_prime(q):
            break
    for h in range(4, 2 * COFACTOR_CANDIDATE_BOUND + 1, 4):
        p = h * q - 1
        if h % q and _is_prime_given_q(p, q):
            return GroupParams(p=p, q=q, h=h)
    raise ParameterSearchError(
        f"no admissible cofactor h <= {2 * COFACTOR_CANDIDATE_BOUND} for q={q}"
    )


# ---------------------------------------------------------------------------
# curve arithmetic
# ---------------------------------------------------------------------------


def is_on_curve(params: GroupParams, point: GElem) -> bool:
    """Whether the point is the identity or satisfies y^2 = x^3 + x mod p."""
    if point.is_identity():
        return True
    p = params.p
    if not (0 <= point.x < p and 0 <= point.y < p):
        return False
    return point.y * point.y % p == (point.x * point.x * point.x + point.x) % p


def _require_on_curve(params: GroupParams, point: GElem) -> None:
    if not is_on_curve(params, point):
        raise MalformedElementError(f"point {point!r} is not on the curve")


# The group law, in Jacobian coordinates: (X, Y, Z) stands for the affine
# (X/Z^2, Y/Z^3), and Z = 0 for the identity.  Formulas for a = 1, b = 0
# after Hankerson-Menezes-Vanstone, Guide to Elliptic Curve Cryptography,
# section 3.2.


def _jac_double(p: int, X: int, Y: int, Z: int):
    """2T; a 2-torsion T (Y = 0) or the identity (Z = 0) gives Z = 0."""
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jac_add_affine(p: int, X: int, Y: int, Z: int, x2: int, y2: int):
    """T + (x2, y2) for a finite affine second point (mixed addition)."""
    if Z == 0:
        return x2, y2, 1
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    R = (y2 * ZZ * Z - Y) % p
    if H == 0 and R == 0:
        # T equals the affine point; T = -(x2, y2) falls through to Z = 0
        return _jac_double(p, x2, y2, 1)
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p


def _jac_to_affine(p: int, X: int, Y: int, Z: int) -> GElem:
    """The affine point for (X, Y, Z), at the cost of one inversion."""
    if Z == 0:
        return INFINITY
    z_inv = pow(Z, -1, p)
    zz_inv = z_inv * z_inv % p
    return GElem(X * zz_inv % p, Y * zz_inv * z_inv % p)


def point_add(params: GroupParams, a: GElem, b: GElem) -> GElem:
    """Group law on E(F_p): a mixed Jacobian addition, then affine again."""
    _require_on_curve(params, a)
    _require_on_curve(params, b)
    return _affine_add(params.p, a, b)


def _affine_add(p: int, a: GElem, b: GElem) -> GElem:
    """point_add without its checks, for points known on the curve; a = b
    doubles, and a = -b gives Z = 0, the identity."""
    if a.is_identity():
        return b
    if b.is_identity():
        return a
    return _jac_to_affine(p, *_jac_add_affine(p, a.x, a.y, 1, b.x, b.y))


def _batch_to_affine(p: int, points):
    """_jac_to_affine for many points at the cost of one inversion
    (Montgomery's trick, 1987): (x, y) per point, or None where Z = 0."""
    prefixes = [1]  # products of the nonzero Z before each point
    for _, _, Z in points:
        prefixes.append(prefixes[-1] * Z % p if Z else prefixes[-1])
    inv = pow(prefixes.pop(), -1, p)
    out = []
    for (X, Y, Z), prefix in zip(reversed(points), reversed(prefixes)):
        if Z:
            z_inv, inv = inv * prefix % p, inv * Z % p
            zz_inv = z_inv * z_inv % p
            out.append((X * zz_inv % p, Y * zz_inv * z_inv % p))
        else:
            out.append(None)
    return out[::-1]


def _naf(n: int):
    """The non-adjacent form of n > 0 below its leading 1, most significant
    digit first, as two strings of bits of equal length.

    Each NAF digit is the bit of 3n less the bit of n one place above it,
    so the first string holds bits of 3n and the second bits of n, and a
    few operations on the whole of n recode it, with no loop.
    """
    triple = 3 * n
    return bin(triple)[3:-1], bin(n >> 1 | 1 << triple.bit_length() - 2)[3:]


def scalar_exp(params: GroupParams, point: GElem, n: int) -> GElem:
    """n-fold group operation; negative n negates first.

    Left-to-right double-and-add over the NAF of |n| (_naf) in Jacobian
    coordinates: a +1 digit adds the affine base and a -1 digit adds its
    negative (x, -y), both with mixed formulas, so the only inversion is
    the one that maps the result back to affine.  A b-bit exponent has
    about b / 3 nonzero NAF digits where its binary form has b / 2.  Every
    point of E(F_p) is accepted, including 2-torsion and points outside
    the order-q subgroup.
    """
    _require_on_curve(params, point)
    n = int(n)
    if n == 0 or point.is_identity():
        return INFINITY
    p = params.p
    x, y = point.x, point.y
    ny = (-y) % p
    if n < 0:
        y, ny, n = ny, y, -n
    X, Y, Z = x, y, 1
    for high, low in zip(*_naf(n)):
        X, Y, Z = _jac_double(p, X, Y, Z)
        if high != low:  # a +1 digit adds (x, y), a -1 digit (x, -y)
            X, Y, Z = _jac_add_affine(p, X, Y, Z, x, y if high == "1" else ny)
    return _jac_to_affine(p, X, Y, Z)


def in_subgroup(params: GroupParams, point: GElem) -> bool:
    """Whether the point lies in the order-q subgroup (identity counts; a
    point off the curve does not)."""
    try:
        return scalar_exp(params, point, params.q).is_identity()
    except MalformedElementError:  # scalar_exp's curve check
        return False


@functools.lru_cache(maxsize=128)
def _window_table(params: GroupParams, point: GElem):
    """The fixed-base window table of a point.

    Row i holds [j * 16^i]point for j < 16, as (x, y) pairs or None for
    the identity, for i < ceil(|q| / WINDOW_BITS).  Built on first use by
    mixed additions, one batched inversion per row, with the row's 16th
    multiple as the next row's base; an off-curve point raises.
    """
    _require_on_curve(params, point)
    p = params.p
    rows = []
    base = None if point.is_identity() else (point.x, point.y)
    for _ in range(-(-params.q.bit_length() // WINDOW_BITS)):
        T = (0, 1, 0)
        multiples = [T]
        for _ in range(1 << WINDOW_BITS):
            if base:  # an identity base leaves every multiple at the identity
                T = _jac_add_affine(p, *T, *base)
            multiples.append(T)
        *row, base = _batch_to_affine(p, multiples)
        rows.append(tuple(row))
    return tuple(rows)


def _window_walk(p: int, table, start: GElem, n: int) -> GElem:
    """start + [n]P, for P's window table and 0 <= n < 16^len(table).

    One mixed addition per nonzero 4-bit digit of n and no doubling.
    Starting at start rather than the identity costs nothing extra, and
    the one inversion comes at the end.
    """
    X, Y, Z = (0, 1, 0) if start.is_identity() else (start.x, start.y, 1)
    for row in table:
        if not n:
            break
        entry = row[n & ((1 << WINDOW_BITS) - 1)]
        if entry is not None:
            X, Y, Z = _jac_add_affine(p, X, Y, Z, *entry)
        n >>= WINDOW_BITS
    return _jac_to_affine(p, X, Y, Z)


def fixed_base_exp(params: GroupParams, point: GElem, n: int) -> GElem:
    """scalar_exp for a long-lived point, by its cached window table.

    The table is built on the point's first use and kept in a bounded
    cache; the walk then costs one mixed addition per nonzero 4-bit digit
    of n.  A table holds 15 * ceil(|q| / 4) points, about 7, 16, 73 and
    487 KiB at k = 16, 32, 128 and 512.  Its build makes 4 mixed additions
    per bit of q and one inversion per row, where a full-length scalar_exp
    makes one doubling per bit and about one addition per three: a table
    costs about 6, 6, 6.5 and 7 scalar_exps at those sizes.  Negative
    exponents and those of more than |q| bits reach scalar_exp through
    _fixed_base_add, so the result is the same for every input.
    """
    return _fixed_base_add(params, point, int(n), INFINITY)


def _fixed_base_add(params: GroupParams, point: GElem, n: int, start: GElem) -> GElem:
    """start + [n]point: one walk of point's window table that starts at
    start, so the sum costs no inversion of its own.  A negative n, or one
    of more than |q| bits, as the xor variant's pi can be under a large
    cofactor, goes to scalar_exp and one addition instead."""
    if n >> params.q.bit_length():
        return _affine_add(params.p, scalar_exp(params, point, n), start)
    return _window_walk(params.p, _window_table(params, point), start, n)


# ---------------------------------------------------------------------------
# F_{p^2} helpers on bare (a, b) pairs, a + b*i with i^2 = -1
# ---------------------------------------------------------------------------


def _fp2_mul(p, a1, b1, a2, b2):
    return (a1 * a2 - b1 * b2) % p, (a1 * b2 + a2 * b1) % p


def _fp2_sqr(p, a, b):
    # a^2 - b^2 as (a - b)(a + b): two multiplications where the plain
    # form makes three
    return (a - b) * (a + b) % p, 2 * a * b % p


def _fp2_pow(p, a, b, e):
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = _fp2_mul(p, ra, rb, a, b)
        e >>= 1
        if e:
            a, b = _fp2_sqr(p, a, b)
    return ra, rb


def _fp2_inv(p, a, b):
    d = pow(a * a + b * b, -1, p)
    return a * d % p, (-b * d) % p


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _naf_digits(q: int) -> tuple:
    """The non-adjacent form of q below its leading 1 (_naf), most
    significant first: digits in {-1, 0, 1}, no two adjacent ones nonzero
    (HMV, Guide to ECC, section 3.3)."""
    return tuple(int(high) - int(low) for high, low in zip(*_naf(q)))


def _miller_add(p, fa, fb, X, Y, Z, px, py, xq, yq):
    """f * l_{T,P}(phi(Q)) and T + P, for a finite T and affine P.

    The chord slope is R / Z3, with R = py*Z^3 - Y, H = px*Z^2 - X and
    Z3 = Z*H.  The line through P, scaled by Z3, is
    (R * (xq + px) - py*Z3) + i*(yq*Z3); R and H also give T + P, by the
    formulas of _jac_add_affine.  T = P takes the tangent at P instead,
    with slope (3px^2 + 1) / 2py, scaled by 2py, and 2P from _jac_double
    (T is a double, so P is not of order 2 then).  T = -P gives a
    vertical line, which is left out, and the identity.
    """
    ZZ = Z * Z % p
    H = (px * ZZ - X) % p
    R = (py * ZZ * Z - Y) % p
    if H == 0:
        if R:
            return fa, fb, X, Y, 0
        la = ((3 * px * px + 1) * (xq + px) - 2 * py * py) % p
        lb = 2 * py * yq % p
        X3, Y3, Z3 = _jac_double(p, px, py, 1)
    else:
        Z3 = Z * H % p
        la = (R * (xq + px) - py * Z3) % p
        lb = yq * Z3 % p
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X3 = (R * R - HHH - 2 * V) % p
        Y3 = (R * (V - X3) - Y * HHH) % p
    return (fa * la - fb * lb) % p, (fa * lb + fb * la) % p, X3, Y3, Z3


def pairing(params: GroupParams, left: GElem, right: GElem) -> GTElem:
    """Modified Tate pairing e(P, Q) = f_{q,P}(phi(Q)) ^ ((p^2-1)/q).

    Symmetric and bilinear on the order-q subgroup, with e(P, P) != 1 for
    P != identity.  By convention any identity argument gives 1.  Both
    arguments must lie on the curve, and the left one in the order-q
    subgroup, or MalformedElementError is raised; the subgroup check costs
    nothing, since the Miller loop ends at [q]left.  The right argument may
    be any curve point.

    The Miller loop runs over the NAF digits of q with T in Jacobian
    coordinates, so it inverts nothing: each step derives one slope, as a
    numerator over T's new Z, and uses it for both its line and its point
    update.  A +1 digit adds P and a -1 digit adds -P = (x, -y), by the
    same mixed addition and chord line; f_{-1,P} = 1 / v_P, and v_P at
    phi(Q) lies in F_p.  Each doubling step squares f without reducing
    it, then multiplies in the tangent with one reduction per component.
    Each line is scaled by a factor in F_p^*, and vertical lines, whose
    values at phi(Q) lie in F_p, are omitted.  The final exponent splits
    as (p^2 - 1)/q = (p - 1) * h.  The Frobenius map is conjugation for
    p = 3 (mod 4), so f^(p-1) = conj(f)^2 / N(f): one F_p inversion, which
    sends every F_p^* factor to 1 and so makes the scaling and the
    omissions exact.  A power by the small cofactor h remains.
    """
    _require_on_curve(params, left)
    _require_on_curve(params, right)
    value = _checked_pairing(params, left, right)
    if value is None:
        raise MalformedElementError("left point is outside the order-q subgroup")
    return value


def _checked_pairing(params: GroupParams, left: GElem, right: GElem):
    """pairing(left, right) if left lies in the order-q subgroup, else None,
    for arguments already known to lie on the curve.

    The Miller loop's T starts at left and, after the NAF digits of q,
    ends at [q]left, so the loop itself is the subgroup check of its left
    argument.  For left in the subgroup every partial multiple of the
    chain is 0 < m < q or m = q + 1, so T is neither the identity nor of
    order 2 before the last digit, and ends at the identity; as q^2 does
    not divide p + 1, no other left gets there.  The loop answers None as
    soon as T leaves that path.  A protocol pairing a received point
    therefore passes it on the left.  Only an identity right argument,
    which skips the loop, costs a separate check.

    A line met on that path never vanishes at phi(Q): an omitted vertical
    would need T and Q both at y = 0, as -1 is a non-residue mod p, and no
    line through points of odd order passes through (0, 0).
    """
    p, q = params.p, params.q
    if left.is_identity():
        return GTElem(1, 0, p)
    if right.is_identity():
        return GTElem(1, 0, p) if in_subgroup(params, left) else None
    px, py = left.x, left.y
    xq, yq = right.x, right.y
    ny = -py % p  # a -1 digit adds -left = (px, ny)
    fa, fb = 1, 0
    X, Y, Z = px, py, 1
    # Miller loop over the NAF digits of q below the leading one
    for digit in _naf_digits(q):
        if Z == 0 or Y == 0:
            # T is the identity, or of order 2, before the last digit
            return None
        # f^2 * l_{T,T}(phi(Q)) and 2T.  The tangent slope at T is M / Z3,
        # with M = 3X^2 + Z^4 and Z3 = 2YZ; its line at phi(Q), scaled by
        # the F_p factor Z3 * Z^2, is (M * (xq*Z^2 + X) - 2Y^2) +
        # i*(yq*Z3*Z^2), and 2T follows _jac_double.  f^2 = A + B*i is left
        # unreduced, so one reduction per component
        YY = Y * Y % p
        ZZ = Z * Z % p
        M = (3 * X * X + ZZ * ZZ) % p
        Z = 2 * Y * Z % p
        la = (M * (xq * ZZ + X) - 2 * YY) % p
        lb = yq * Z * ZZ % p
        A = (fa - fb) * (fa + fb)
        B = 2 * fa * fb
        fa, fb = (A * la - B * lb) % p, (A * lb + B * la) % p
        S = 4 * X * YY % p
        X = (M * M - 2 * S) % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if digit:
            y = py if digit > 0 else ny
            fa, fb, X, Y, Z = _miller_add(p, fa, fb, X, Y, Z, px, y, xq, yq)
    # T = [q]left now
    if Z:
        return None
    # f^(p-1) = conj(f)^2 / N(f), then the power by h
    n_inv = pow(fa * fa + fb * fb, -1, p)
    ua, ub = (fa - fb) * (fa + fb) * n_inv % p, -2 * fa * fb * n_inv % p
    fa, fb = _fp2_pow(p, ua, ub, params.h)
    return GTElem(fa, fb, p)


# ---------------------------------------------------------------------------
# GT arithmetic
# ---------------------------------------------------------------------------


def gt_mul(z1: GTElem, z2: GTElem) -> GTElem:
    if z1.p != z2.p:
        raise MalformedElementError("GT elements from different fields")
    a, b = _fp2_mul(z1.p, z1.a, z1.b, z2.a, z2.b)
    return GTElem(a, b, z1.p)


def gt_exp(z: GTElem, n: int) -> GTElem:
    n = int(n)
    if n < 0:
        z = gt_inv(z)
        n = -n
    a, b = _fp2_pow(z.p, z.a, z.b, n)
    return GTElem(a, b, z.p)


def gt_inv(z: GTElem) -> GTElem:
    if z.a == 0 and z.b == 0:
        raise MalformedElementError("zero is not invertible")
    a, b = _fp2_inv(z.p, z.a, z.b)
    return GTElem(a, b, z.p)


# ---------------------------------------------------------------------------
# hashing and sampling
# ---------------------------------------------------------------------------


def identity_bytes(identity) -> bytes:
    """The bytes an identity stands for, the package's one identity rule: a
    str its strict UTF-8, bytes and bytearray themselves, 1 to 0xFFFF bytes
    (so every identity fits the 2-byte frame of sized); all else is refused."""
    try:
        ident = identity.encode("utf-8") if isinstance(identity, str) else identity
    except UnicodeEncodeError as exc:
        raise InvalidIdentityError("identity is not valid UTF-8 text") from exc
    if not isinstance(ident, (bytes, bytearray)) or not 1 <= len(ident) <= 0xFFFF:
        raise InvalidIdentityError("an identity is text or bytes, 1 to 65535 bytes long")
    return bytes(ident)


def hash_to_group(params: GroupParams, identity) -> GElem:
    """Map an identity to a non-identity point of the q-subgroup.

    Try-and-increment: x = SHA-256(tag || id || counter) mod p until
    x^3 + x is a nonzero square, take y = (x^3+x)^((p+1)/4), then clear the
    cofactor.  Results landing on the identity are skipped.  Results are
    cached per (params, identity_bytes(identity)), so a str identity and
    its UTF-8 bytes share an entry.
    """
    return _hash_to_group(params, identity_bytes(identity))


@functools.lru_cache(maxsize=1024)
def _hash_to_group(params: GroupParams, ident: bytes) -> GElem:
    p, h = params.p, params.h
    qr_exp = (p - 1) // 2
    sqrt_exp = (p + 1) // 4
    for counter in range(HASH_COUNTER_BOUND):
        digest = hashlib.sha256(
            TAG_HASH_TO_GROUP + ident + counter.to_bytes(2, "big")
        ).digest()
        x = int.from_bytes(digest, "big") % p
        t = (x * x * x + x) % p
        # the residue test refuses t = 0 (x = 0, the order-2 point) too
        if pow(t, qr_exp, p) != 1:
            continue
        y = pow(t, sqrt_exp, p)
        point = scalar_exp(params, GElem(x, y), h)
        if point.is_identity():
            continue
        return point
    raise HashToGroupError(
        f"no curve point for identity within {HASH_COUNTER_BOUND} counters"
    )


def random_scalar(params: GroupParams, rng: random.Random) -> int:
    """Uniform scalar in [1, q-1] by rejection sampling."""
    bits = params.q.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if 1 <= value < params.q:
            return value


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

PARAMS_ENCODING_VERSION = 0x01


def coord_size(params: GroupParams) -> int:
    return (params.p.bit_length() + 7) // 8


def encode_point(params: GroupParams, point: GElem) -> bytes:
    """0x00 for the identity, else 0x04 || x || y big-endian fixed width.

    The point is trusted to lie on the curve; decode_point checks it.
    """
    if point.is_identity():
        return b"\x00"
    n = coord_size(params)
    return b"\x04" + point.x.to_bytes(n, "big") + point.y.to_bytes(n, "big")


def decode_point(params: GroupParams, data: bytes) -> GElem:
    if data == b"\x00":
        return INFINITY
    n = coord_size(params)
    if len(data) != 1 + 2 * n or data[0] != 0x04:
        raise MalformedElementError("bad point encoding")
    point = GElem(
        int.from_bytes(data[1 : 1 + n], "big"),
        int.from_bytes(data[1 + n :], "big"),
    )
    _require_on_curve(params, point)
    return point


def encode_gt(params: GroupParams, z: GTElem) -> bytes:
    """Both F_p components big-endian, fixed width."""
    n = coord_size(params)
    return z.a.to_bytes(n, "big") + z.b.to_bytes(n, "big")


def sized(blob: bytes) -> bytes:
    """The field framed for the wire: a 2-byte big-endian length, then blob."""
    if len(blob) > 0xFFFF:
        raise MalformedElementError("field too long to frame")
    return len(blob).to_bytes(2, "big") + blob


def take_sized(data: bytes, offset: int):
    """Read the framed field at offset; returns (field, next offset)."""
    start = offset + 2
    # a cut length prefix still puts the end past the data
    end = start + int.from_bytes(data[offset:start], "big")
    if end > len(data):
        raise MalformedElementError("truncated field")
    return data[start:end], end


def take_point(params: GroupParams, data: bytes, offset: int):
    """Read the encoded point at offset; returns (point, next offset)."""
    if data[offset : offset + 1] == b"\x00":
        return INFINITY, offset + 1
    end = offset + 1 + 2 * coord_size(params)
    # decode_point rejects a cut encoding by its length
    return decode_point(params, data[offset:end]), end


def encode_group_params(params: GroupParams) -> bytes:
    """version || p || q || h, each big-endian with a 2-byte length prefix."""
    out = bytes([PARAMS_ENCODING_VERSION])
    for value in (params.p, params.q, params.h):
        out += sized(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))
    return out


def decode_group_params(data: bytes) -> GroupParams:
    if not data or data[0] != PARAMS_ENCODING_VERSION:
        raise MalformedElementError("bad params encoding version")
    values = []
    offset = 1
    for _ in range(3):
        field, offset = take_sized(data, offset)
        values.append(int.from_bytes(field, "big"))
    if offset != len(data):
        raise MalformedElementError("trailing bytes in params encoding")
    p, q, h = values
    # instance_generate never leaves these bounds.  Primality tests on larger
    # values would let a crafted file stall the caller, and a 2-bit q gives
    # distinct identities the same public point.
    low, high = _K_BITS_RANGE
    if not low <= q.bit_length() <= high or h > 2 * COFACTOR_CANDIDATE_BOUND:
        raise MalformedElementError("group parameters lie outside the supported sizes")
    if p != h * q - 1 or p % 4 != 3 or h % 2 != 0 or h % q == 0:
        raise MalformedElementError("inconsistent group parameters")
    if not (is_probable_prime(q) and _is_prime_given_q(p, q)):
        raise MalformedElementError("group parameters are not prime")
    return GroupParams(p=p, q=q, h=h)
