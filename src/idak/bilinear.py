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

A long-lived right argument (a party's d_id in protocol.derive's choice
2) has its Miller lines cached instead, after Costello and Stebila
("Fixed argument pairings", 2010): as e is symmetric on G x G,
e(P, Q) = e(Q, P), and Q's NAF chain of q is walked once, each tangent
and chord stored as its two F_p coefficients at phi of any point.  A
pairing with it then only evaluates the stored lines, but no longer
checks P's subgroup for free, so an explicit [q]-walk of P comes
first.  GT elements have norm 1 (conj(z) = 1/z), so gt_exp is a Lucas
ladder on z^k + conj(z)^k in F_p, two F_p multiplications per bit.

The group law is written once, in Jacobian coordinates, and every
point operation uses it, with one inversion back to affine; its doubling
uses b = 0 (_jac_double), and scalar_exp walks the NAF of its exponent,
as the Miller loop walks q's.  Points used again and again (a party's
own hashed identity and identity key, a peer's hashed identity, the base
point of a CBDH instance) are multiplied through a fixed-base window
table: its rows [j * 64^i]P for j = 1..32 are built on first use, one
batched inversion per row, and kept in a bounded cache, and a walk adds
one row entry or its negative per nonzero signed 6-bit digit of the
exponent (HMV, section 3.3), with no doubling; a walk may start at any
point, which adds that point for free.  Hashed identities are cached the
same way.

A point is checked for the curve where it enters (decode_point,
take_point) and by each public function that computes on it: point_add,
scalar_exp, fixed_base_exp and pairing raise MalformedElementError, and
in_subgroup answers False.  pairing also refuses a left argument outside
the order-q subgroup, at no cost, as its Miller loop ends at [q]left; the
right one may be any curve point.  Encoders and the private helpers
(_affine_add, _jac_mul, _window_walk, _fixed_base_add, _checked_pairing,
_fixed_pairing) trust their points.

Four primitives count their calls in the module-level dict OPS, the
operations of protocol.derive's cost table: _checked_pairing (and so
pairing) and _fixed_pairing under "pairing", gt_exp under "exp_gt", and
_fixed_base_add (and so fixed_base_exp) under "exp_g" when its walk
starts at the identity and "exp_g_add" when it starts at a point.
Nothing whose cost depends on cache state is counted (hash_to_group,
table builds, in_subgroup), and _fixed_pairing counts one pairing with
or without a line table, so work on cold caches counts as on warm ones.
OPS only grows: a caller copies it before some work and subtracts the
copy from it after.  The package is single-threaded, so one plain dict
serves.

Setup proves both primes, and so does every decode of a params file, by
one test: Baillie-PSW (is_probable_prime), one gcd with the product of
the primes below 1000, one strong base-2 round and one strong Lucas test
(Baillie-Wagstaff, Math. Comp. 35, 1980; FIPS 186-4, appendix C.3.3).
It is exact below 2^64, where Feitsma and Galway listed every base-2
pseudoprime and none passes the Lucas test.  Above 2^64 no composite is
known to pass it.  That includes [2^64, psi_13), psi_13 ~ 2^81.5, where
Miller-Rabin to the 13 primes 2..41 would be exact: the one test is kept
there too.  Above psi_13 it replaces 40 Miller-Rabin rounds with bases
drawn from n, which the author of a crafted params file could compute in
advance.  p = h*q - 1 takes the same test as q.  That gives up one
window of exactness, q < 2^64 <= p, where generated sets fall at about
k = 56..64: there an N+1 proof of p in F_p[i] from the prime q | p + 1
would be exact, while above it such a proof is only as sure as q.
Setup scans cofactors h divisible by 4, which for odd q are exactly
those with p = h*q - 1 = 3 (mod 4).

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
WINDOW_BITS = 6

# Calls per kind (see the module docstring).  A plain dict, not a Counter
# or a contextvar: a copy and four subtractions per derive stay near a
# microsecond.
OPS = dict.fromkeys(("pairing", "exp_gt", "exp_g", "exp_g_add"), 0)

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


def _strong_probable_prime(n: int) -> bool:
    """One Miller-Rabin round: whether odd n > 3 is a strong probable prime
    to base 2."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    x = pow(2, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


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
    return _strong_probable_prime(n) and _strong_lucas_probable_prime(n)


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
        if h % q and is_probable_prime(p):
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
    """2T; a 2-torsion T (Y = 0) or the identity (Z = 0) gives Z = 0.

    With b = 0, Y^2 = X^3 + X*Z^4 turns the textbook doubling into
    X3 = (X^2 - Z^4)^2, Y3 = (X^2 - Z^4)((X^2 + Z^4)^2 + 4X^2 Z^4) and
    Z3 = 2YZ, where (X^2 + Z^4)^2 + 4X^2 Z^4 = X3 + 8X^2 Z^4: seven
    multiplications, where the textbook form makes nine.  The identity
    holds for points on the curve only, and every caller's point is one.
    """
    XX = X * X % p
    ZZ = Z * Z % p
    W = ZZ * ZZ % p
    D = XX - W
    X3 = D * D % p
    return X3, D * (X3 + 8 * XX * W) % p, 2 * Y * Z % p


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


def _batch_inverse(p: int, values):
    """The inverses mod p of nonzero values at the cost of one inversion
    (Montgomery's trick, 1987)."""
    prefixes = [1]  # products of the values before each one
    for value in values:
        prefixes.append(prefixes[-1] * value % p)
    inv = pow(prefixes.pop(), -1, p)
    out = []
    for value, prefix in zip(reversed(values), reversed(prefixes)):
        out.append(inv * prefix % p)
        inv = inv * value % p
    return out[::-1]


def _batch_to_affine(p: int, points):
    """_jac_to_affine for many points at the cost of one inversion
    (_batch_inverse): (x, y) per point, or None where Z = 0."""
    out = []
    for (X, Y, Z), z_inv in zip(points, _batch_inverse(p, [Z or 1 for _, _, Z in points])):
        if Z:
            zz_inv = z_inv * z_inv % p
            out.append((X * zz_inv % p, Y * zz_inv * z_inv % p))
        else:
            out.append(None)
    return out


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
    y = point.y if n > 0 else (-point.y) % p
    return _jac_to_affine(p, *_jac_mul(p, point.x, y, abs(n)))


def _jac_mul(p: int, x: int, y: int, n: int):
    """[n](x, y) in Jacobian coordinates for n > 0 and a finite point on
    the curve, which is trusted: scalar_exp's walk without its checks and
    its inversion.  Each doubling is _jac_double's, inlined."""
    ny = (-y) % p
    X, Y, Z = x, y, 1
    for high, low in zip(*_naf(n)):
        XX = X * X % p
        ZZ = Z * Z % p
        W = ZZ * ZZ % p
        D = XX - W
        Z = 2 * Y * Z % p
        X = D * D % p
        Y = D * (X + 8 * XX * W) % p
        if high != low:  # a +1 digit adds (x, y), a -1 digit (x, -y)
            X, Y, Z = _jac_add_affine(p, X, Y, Z, x, y if high == "1" else ny)
    return X, Y, Z


def in_subgroup(params: GroupParams, point: GElem) -> bool:
    """Whether the point lies in the order-q subgroup (identity counts; a
    point off the curve does not)."""
    try:
        return scalar_exp(params, point, params.q).is_identity()
    except MalformedElementError:  # scalar_exp's curve check
        return False


@functools.lru_cache(maxsize=128)
def _window_table(params: GroupParams, point: GElem):
    """The fixed-base window table of a point, for _window_walk.

    Row i is one flat tuple (x_1, y_1, ..., x_32, y_32) of the multiples
    [j * 64^i]point for j = 1..32, with a None pair where a point outside
    the subgroup reaches the identity, for i < ceil((|q| + 1) / 6): the
    walk's signed digits may carry one place past |q| bits.  Built on
    first use: per row, 31 mixed additions and one _jac_double of the
    32nd multiple for the next row's base, all converted by one batched
    inversion; an off-curve point raises.
    """
    _require_on_curve(params, point)
    p = params.p
    half = 1 << (WINDOW_BITS - 1)
    rows = []
    base = None if point.is_identity() else (point.x, point.y)
    for _ in range(-(-(params.q.bit_length() + 1) // WINDOW_BITS)):
        if base is None:  # an identity base leaves every multiple at the identity
            rows.append((None,) * (2 * half))
            continue
        T = (*base, 1)
        multiples = [T]
        for _ in range(half - 1):
            T = _jac_add_affine(p, *T, *base)
            multiples.append(T)
        multiples.append(_jac_double(p, *T))
        *row, base = _batch_to_affine(p, multiples)
        rows.append(tuple(c for entry in row for c in (entry or (None, None))))
    return tuple(rows)


def _window_walk(p: int, table, start: GElem, n: int) -> GElem:
    """start + [n]P, for P's window table and 0 <= n < 2^|q|.

    Recodes n into signed 6-bit digits, low first: a digit d of 1..32
    adds row entry d, and one of 33..63 adds the negative (x, p - y) of
    entry 64 - d, which costs nothing, and carries 1 into the next digit.
    One mixed addition per nonzero digit and no doubling.  Starting at
    start rather than the identity costs nothing extra, and the one
    inversion comes at the end.
    """
    mask = (1 << WINDOW_BITS) - 1
    half = 1 << (WINDOW_BITS - 1)
    X, Y, Z = (0, 1, 0) if start.is_identity() else (start.x, start.y, 1)
    for row in table:
        if not n:
            break
        d = n & mask
        n >>= WINDOW_BITS
        if not d:
            continue
        if d > half:  # the digit d - 64: entry 64 - d at 2 * (64 - d) - 2
            n += 1
            i = 2 * (mask - d)
            x = row[i]
            if x is not None:
                X, Y, Z = _jac_add_affine(p, X, Y, Z, x, p - row[i + 1])
        else:
            i = 2 * d - 2
            x = row[i]
            if x is not None:
                X, Y, Z = _jac_add_affine(p, X, Y, Z, x, row[i + 1])
    return _jac_to_affine(p, X, Y, Z)


def fixed_base_exp(params: GroupParams, point: GElem, n: int) -> GElem:
    """scalar_exp for a long-lived point, by its cached window table.

    The table is built on the point's first use and kept in a bounded
    cache; the walk then costs one mixed addition per nonzero signed 6-bit
    digit of n.  A table holds 32 * ceil((|q| + 1) / 6) points: 96, 192,
    704 and 2752, in about 7, 15, 73 and 563 KiB, at k = 16, 32, 128 and
    512.  Its build makes about 5.3 mixed additions per bit of q and one
    inversion per row, where a full-length scalar_exp makes one doubling
    per bit and about one addition per three: on a 2-core Xeon under
    Python 3.11 a table cost 8 to 14 scalar_exps at those sizes, and a
    full-length walk 0.1 to 0.3 of one.  Negative exponents and those
    of more than |q| bits reach scalar_exp through _fixed_base_add, so the
    result is the same for every input.
    """
    return _fixed_base_add(params, point, int(n), INFINITY)


def _fixed_base_add(params: GroupParams, point: GElem, n: int, start: GElem) -> GElem:
    """start + [n]point: one walk of point's window table that starts at
    start, so the sum costs no inversion of its own.  A negative n, or one
    of more than |q| bits, as the xor variant's pi can be under a large
    cofactor, goes to scalar_exp and one addition instead; OPS counts
    either way alike."""
    OPS["exp_g" if start.is_identity() else "exp_g_add"] += 1
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
    OPS["pairing"] += 1
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
    return _final_exponentiation(params, fa, fb)


def _final_exponentiation(params: GroupParams, fa: int, fb: int) -> GTElem:
    """f^((p^2 - 1)/q) for a Miller value f = fa + fb*i, nonzero: first
    f^(p-1) = conj(f)^2 / N(f), one F_p inversion, then the power by h."""
    p = params.p
    n_inv = pow(fa * fa + fb * fb, -1, p)
    ua, ub = (fa - fb) * (fa + fb) * n_inv % p, -2 * fa * fb * n_inv % p
    fa, fb = _fp2_pow(p, ua, ub, params.h)
    return GTElem(fa, fb, p)


@functools.lru_cache(maxsize=128)
def _line_table(params: GroupParams, point: GElem):
    """The Miller lines of a long-lived point, for _fixed_pairing: the
    pairing's counterpart of _window_table (Costello-Stebila, "Fixed
    argument pairings", 2010).

    Walks point's NAF chain of q once, as _checked_pairing's T does, and
    records each tangent and chord as (square, c1, c0): its value at
    phi(Q) = (-x_Q, i*y_Q), divided by an F_p factor, is
    (c1 * x_Q + c0) + i*y_Q, with c1 the slope and c0 = c1*x_T - y_T at
    a point T of the line, and square says that f is squared before the
    line is multiplied in.  The chain keeps T in Jacobian coordinates;
    one batched inversion of the lines' denominators normalises them
    all.  The last chord is vertical and left out.  None for the
    identity, a point off the curve, or one whose chain leaves the
    subgroup path (see _checked_pairing), so a table exists exactly for
    the points of the subgroup but the identity.  A table holds about
    4/3 * |q| lines, 170 in 27 KiB at k = 128 and 679 in 175 KiB at
    k = 512, and costs about 1.2 pairings to build.
    """
    if point.is_identity() or not is_on_curve(params, point):
        return None
    p = params.p
    px, py = point.x, point.y
    ny = -py % p
    X, Y, Z = px, py, 1
    lines = []  # (square, c1 numerator, c0 numerator, denominator)
    for digit in _naf_digits(params.q):
        if Z == 0 or Y == 0:
            return None
        # the tangent at T: slope M / (2YZ), c0 = (M*X - 2Y^2) / (2YZ * Z^2)
        YY = Y * Y % p
        ZZ = Z * Z % p
        M = (3 * X * X + ZZ * ZZ) % p
        lines.append((True, M * ZZ, M * X - 2 * YY, 2 * Y * Z * ZZ))
        X, Y, Z = _jac_double(p, X, Y, Z)
        if digit:
            # the chord through T and (px, y): slope R / (Z*H), c0 = slope*px - y.
            # On the subgroup path H = 0 only at the last digit, where
            # T = -(px, y) and the chord is vertical; off it, the check of
            # [q]point below refuses the table
            y = py if digit > 0 else ny
            ZZ = Z * Z % p
            H = (px * ZZ - X) % p
            if H:
                R = (y * ZZ * Z - Y) % p
                lines.append((False, R, R * px - y * Z * H, Z * H))
            X, Y, Z = _jac_add_affine(p, X, Y, Z, px, y)
    if Z:  # T = [q]point is not the identity
        return None
    inverses = _batch_inverse(p, [den for _, _, _, den in lines])
    return tuple((square, c1 * inv % p, c0 * inv % p)
                 for (square, c1, c0, _), inv in zip(lines, inverses))


def _fixed_pairing(params: GroupParams, received: GElem, fixed: GElem):
    """_checked_pairing(params, received, fixed), by the cached line table
    of the long-lived point fixed.

    On G x G the pairing is symmetric, so for fixed in the subgroup
    e(received, fixed) = e(fixed, received) = f_{q,fixed}(phi(received))
    ^ ((p^2 - 1)/q), and the Miller loop only evaluates fixed's stored
    lines at phi(received): per line one multiplication for its real part
    and one F_{p^2} product, after an unreduced squaring of f where the
    line is a tangent.  received now sits on the right, so its subgroup
    check is no longer the loop: an explicit [q]-walk (_jac_mul) comes
    first, and answers None for a received point outside the subgroup, as
    _checked_pairing does.  A line never vanishes at phi(received), whose
    y is not 0, and neither does an omitted vertical (see
    _checked_pairing).  A fixed point with no table goes to
    _checked_pairing, so the result is the same for every pair of curve
    points.  Counted under "pairing" once either way.
    """
    lines = _line_table(params, fixed)
    if lines is None:
        return _checked_pairing(params, received, fixed)
    OPS["pairing"] += 1
    p = params.p
    if received.is_identity():
        return GTElem(1, 0, p)
    xq, yq = received.x, received.y
    if _jac_mul(p, xq, yq, params.q)[2]:  # [q]received is not the identity
        return None
    fa, fb = 1, 0
    for square, c1, c0 in lines:
        la = (c1 * xq + c0) % p
        if square:
            fa, fb = (fa - fb) * (fa + fb), 2 * fa * fb
        fa, fb = (fa * la - fb * yq) % p, (fa * yq + fb * la) % p
    return _final_exponentiation(params, fa, fb)


# ---------------------------------------------------------------------------
# GT arithmetic
# ---------------------------------------------------------------------------


def gt_mul(z1: GTElem, z2: GTElem) -> GTElem:
    if z1.p != z2.p:
        raise MalformedElementError("GT elements from different fields")
    a, b = _fp2_mul(z1.p, z1.a, z1.b, z2.a, z2.b)
    return GTElem(a, b, z1.p)


def gt_exp(z: GTElem, n: int) -> GTElem:
    """z^n for z of norm a^2 + b^2 = 1, as every element of GT has; any
    other z raises MalformedElementError.

    A Lucas ladder (Joye-Quisquater, "Efficient computation of full Lucas
    sequences", 1996) on V_k = z^k + conj(z)^k, which lies in F_p: with
    conj(z) = 1/z, V_2k = V_k^2 - 2 and V_2k+1 = V_k V_k+1 - V_1, so each
    bit of n costs two F_p multiplications where square-and-multiply in
    F_{p^2} makes about four.  z^n = A + B*i is then recovered from V_n
    and V_n+1 = 2(aA - bB): A = V_n / 2 and B = (a V_n - V_n+1) / (2b),
    at the cost of one inversion.  A negative n raises conj(z) = 1/z.
    """
    OPS["exp_gt"] += 1
    p, a = z.p, z.a
    if (a * a + z.b * z.b) % p != 1:
        raise MalformedElementError("GT element does not have norm 1")
    n = int(n)
    b = -z.b if n < 0 else z.b  # z^-n = conj(z)^n
    n = abs(n)
    if n == 0:
        return GTElem(1, 0, p)
    if b % p == 0:  # z = a = 1 or -1
        return GTElem(pow(a, n, p), 0, p)
    v1 = 2 * a % p
    v, w = v1, (v1 * v1 - 2) % p  # V_1, V_2
    for bit in bin(n)[3:]:
        if bit == "1":
            v, w = (v * w - v1) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - v1) % p
    half = (p + 1) // 2  # 1/2 mod p
    return GTElem(v * half % p, (a * v - w) * pow(2 * b, -1, p) % p, p)


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
    if not (is_probable_prime(q) and is_probable_prime(p)):
        raise MalformedElementError("group parameters are not prime")
    return GroupParams(p=p, q=q, h=h)
