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
inversion, and it maps every F_p^* factor of f to 1, and f to an element
of norm 1, whose power by h is a Lucas ladder (below).  The Miller loop
may therefore skip vertical lines (denominator elimination) and scale
each line by an F_p^* factor, which lets it keep T in Jacobian
coordinates and invert nothing; each step uses one slope for both its
line and its point update.  The loop walks the non-adjacent form (NAF)
of q (Hankerson-Menezes-Vanstone, Guide to ECC, section 3.3), whose -1
digits add -P = (x, -y) by the same formulas; at k = 128 a q has about
43 nonzero NAF digits where its binary form has about 64.  Each doubling
step squares f unreduced inside its line product.

A long-lived right argument (a party's d_id in protocol.derive's choice
2, which every sessions.World relay runs) has its Miller lines cached
instead, after Costello and Stebila ("Fixed argument pairings", 2010):
as e is symmetric on G x G, e(P, Q) = e(Q, P), and Q's NAF chain of q
is walked once, each tangent and chord stored as its two F_p
coefficients at phi of any point.  A pairing with it then only
evaluates the stored lines and no longer checks P's subgroup, so the
caller checks P: protocol.derive by one explicit check, and a World by
checking each flow once, where it enters (sessions.World._coerce_flow).
Every pairing ends in one Lucas ladder over h times the power it is
raised to: 1 for a plain pairing, derive's x + s for choice 2's, so that
raise costs no ladder of its own.  GT elements have norm 1
(conj(z) = 1/z), so gt_inv is a conjugation and gt_exp is a Lucas ladder
on z^k + conj(z)^k in F_p, two F_p multiplications per bit; these are
GT's only inverse and power.

Every explicit subgroup check (in_subgroup, and _in_group where the
curve is already tested) is one reduced Tate pairing of order h, after
Koshelev ("Subgroup membership testing on elliptic curves via the Tate
pairing", J. Cryptographic Engineering, 2023): E(F_p)/G is cyclic of
order h, and the pairing with a point U of E(F_{p^2})[h] whose character
has order h maps it injectively into F_{p^2}, so P lies in G exactly
when the value is 1 (_in_group).  U's Miller lines are cached per
group, built on first use (_cofactor_lines), so a check is a Miller
loop of |h| <= 21 steps and a Lucas ladder of |q| bits, two F_p
multiplications per bit where a [q]-walk makes about eight.  U = [q]R
for a hashed R of E(F_{p^2}) is built from two walks over F_p and four
additions over F_{p^2}, by the Frobenius map (_cofactor_point).

The group law is written once, in Jacobian coordinates over F_p, and
every operation on points of E(F_p) uses it, with one inversion back to
affine; every doubling, the Miller loop's included, uses b = 0
(_jac_double), and scalar_exp walks the NAF of its exponent, as the
Miller loop walks q's.  Nothing walks over F_{p^2}: the few points that
U's build and chain add, once per group, go through one affine law
(_fp2_affine_add).
Points used again and again (a party's own hashed identity and identity
key, a peer's hashed identity, the base point of a CBDH instance) are
multiplied through a fixed-base window table: its rows [j * 64^i]P for
j = 1..32 are built on first use, one batched inversion per row, and
kept in a bounded cache, and a walk adds one row entry or its negative
per nonzero signed 6-bit digit of the exponent (HMV, section 3.3), with
no doubling; a walk may start at any point, which adds that point for
free.  Hashed identities are cached the same way.

A point is checked for the curve where it enters (decode_point,
take_point) and by each public function that computes on it: point_add,
scalar_exp, fixed_base_exp and pairing raise MalformedElementError, and
in_subgroup answers False.  pairing also refuses a left argument outside
the order-q subgroup, at no cost, as its Miller loop ends at [q]left; the
right one may be any curve point.  Encoders and the private helpers
(_affine_add, _jac_mul, _window_walk, _fixed_base_add, _checked_pairing,
_fixed_pairing, _in_group) trust their points.  So a subgroup check tests
the curve once: public callers call in_subgroup, which tests it first,
and code that has already tested the point calls _in_group, whose
docstring lists that code.

Four primitives count their calls in the module-level dict OPS, the
operations of protocol.derive's cost table: _checked_pairing (and so
pairing) and _fixed_pairing under "pairing", gt_exp, and _fixed_pairing,
which always raises its value and so counts one, under "exp_gt", and
_fixed_base_add (and so fixed_base_exp) under "exp_g" when its walk
starts at the identity and "exp_g_add" when it starts at a point.
Nothing whose cost depends on cache state is counted (hash_to_group,
table builds, in_subgroup and its line build), and _fixed_pairing counts
one pairing and one exp_gt with or without a line table, so work on cold
caches counts as on warm ones.
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

The value types GroupParams, GElem and GTElem, like protocol's
FlowMessage, SharedSecret, SessionKey, DeriveStrategy and OpCounts and
selfreduction's CbdhInstance, are NamedTuples: a World relay builds about
12 of them and hashes about 24 (as cache and dict keys), and a tuple is
built, hashed and compared in C, where a frozen dataclass sets each field
through object.__setattr__ and hashes in generated Python, with or
without slots=True.  So a value also equals the plain tuple of its
fields (an OpCounts equals its row of protocol.EXPECTED_COSTS), and +
concatenates fields; point_add is the group law.

Parameter sizes here are deliberately small.  Nothing in this module is
safe for production use.
"""

from __future__ import annotations

import functools
import hashlib
import random
from math import gcd, isqrt, prod
from typing import NamedTuple

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


class GroupParams(NamedTuple):
    """Public curve parameters: p = h*q - 1 with q prime."""

    p: int
    q: int
    h: int

    @property
    def k_bits(self) -> int:
        """The size of q in bits."""
        return self.q.bit_length()


class GElem(NamedTuple):
    """Affine point on y^2 = x^3 + x, with (None, None) as the identity."""

    x: int | None
    y: int | None

    def is_identity(self) -> bool:
        return self.x is None


#: The point at infinity, shared by every parameter set.
INFINITY = GElem(None, None)


class GTElem(NamedTuple):
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
    its inversion."""
    ny = (-y) % p
    X, Y, Z = x, y, 1
    for high, low in zip(*_naf(n)):
        X, Y, Z = _jac_double(p, X, Y, Z)
        if high != low:  # a +1 digit adds (x, y), a -1 digit (x, -y)
            X, Y, Z = _jac_add_affine(p, X, Y, Z, x, y if high == "1" else ny)
    return X, Y, Z


def in_subgroup(params: GroupParams, point: GElem) -> bool:
    """Whether the point lies in the order-q subgroup (identity counts; a
    point off the curve does not), by one short Tate pairing of order h
    (_in_group).  For public callers, whose points are not yet known to
    lie on the curve; the code that has tested the curve already calls
    _in_group (see its docstring), so the curve is tested once."""
    if not is_on_curve(params, point):
        return False
    return point.is_identity() or _in_group(params, point)


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


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _naf_digits(q: int) -> tuple:
    """The non-adjacent form of q below its leading 1 (_naf), most
    significant first: digits in {-1, 0, 1}, no two adjacent ones nonzero
    (HMV, Guide to ECC, section 3.3)."""
    return tuple(int(high) - int(low) for high, low in zip(*_naf(q)))


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
    phi(Q) lies in F_p.  Each doubling step doubles T by the b = 0
    formulas of _jac_double, squares f without reducing it, then
    multiplies in the tangent with one reduction per component.  Each
    line is scaled by a factor in F_p^*, and vertical lines, whose values
    at phi(Q) lie in F_p, are omitted.  The final exponent splits as
    (p^2 - 1)/q = (p - 1) * h.  The Frobenius map is conjugation for
    p = 3 (mod 4), so f^(p-1) = conj(f)^2 / N(f): one F_p inversion, which
    sends every F_p^* factor to 1 and so makes the scaling and the
    omissions exact.  f^(p-1) has norm 1, and its power by the cofactor h
    is a Lucas ladder (_final_exponentiation).
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

    A chord with H = px*Z^2 - X = 0, where T and the added point share x,
    is multiplied in as no line, and T moves by _jac_add_affine.  On the
    subgroup path that happens only at a -1 last digit, where T = left
    and the chord through T and -left is vertical, so leaving it out is
    exact, as _line_table also relies on.  Off the path T may equal the
    added point, where the line would be a tangent; the check of [q]left
    refuses such a left anyway.

    A line met on that path never vanishes at phi(Q): an omitted vertical
    would need T and Q both at y = 0, as -1 is a non-residue mod p, and no
    line through points of odd order passes through (0, 0).
    """
    OPS["pairing"] += 1
    p, q = params.p, params.q
    if left.is_identity():
        return GTElem(1, 0, p)
    if right.is_identity():
        return GTElem(1, 0, p) if _in_group(params, left) else None
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
        # i*(yq*Z3*Z^2), and 2T follows _jac_double, sharing X^2 and Z^4
        # with M.  f^2 = A + B*i is left unreduced, so one reduction per
        # component
        XX = X * X % p
        ZZ = Z * Z % p
        W = ZZ * ZZ % p
        la = ((3 * XX + W) * (xq * ZZ + X) - 2 * Y * Y) % p
        Z = 2 * Y * Z % p
        lb = yq * Z * ZZ % p
        A = (fa - fb) * (fa + fb)
        B = 2 * fa * fb
        fa, fb = (A * la - B * lb) % p, (A * lb + B * la) % p
        D = XX - W
        X = D * D % p
        Y = D * (X + 8 * XX * W) % p
        if digit:
            # f * l_{T,P'}(phi(Q)) and T + P' for P' = (px, y).  The chord
            # slope is R / Z3, with R = y*Z^3 - Y, H = px*Z^2 - X and
            # Z3 = Z*H; its line, scaled by Z3, is (R * (xq + px) - y*Z3) +
            # i*(yq*Z3), and R and H also give T + P', as in _jac_add_affine
            y = py if digit > 0 else ny
            ZZ = Z * Z % p
            H = (px * ZZ - X) % p
            if H:
                R = (y * ZZ * Z - Y) % p
                Z3 = Z * H % p
                la = (R * (xq + px) - y * Z3) % p
                lb = yq * Z3 % p
                fa, fb = (fa * la - fb * lb) % p, (fa * lb + fb * la) % p
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - Y * HHH) % p
                Z = Z3
            else:
                X, Y, Z = _jac_add_affine(p, X, Y, Z, px, y)  # no line: see the docstring
    # T = [q]left now
    if Z:
        return None
    return _final_exponentiation(params, fa, fb, 1)


def _final_exponentiation(params: GroupParams, fa: int, fb: int, n: int):
    """f^((p^2 - 1)/q) raised to n >= 0, for a Miller value f = fa + fb*i,
    nonzero: first u = f^(p-1) = conj(f)^2 / N(f), one F_p inversion, then
    u^(h*n) by one Lucas ladder over h*n and its recovery (_ladder_pow).
    u has norm 1.  A plain pairing passes n = 1; _fixed_pairing passes its
    power, so raising costs the ladder's steps over n and no GT element or
    second ladder set-up of its own."""
    p = params.p
    return _ladder_pow(p, *_frobenius_quotient(p, fa, fb), params.h * n)


def _frobenius_quotient(p: int, fa: int, fb: int):
    """u = f^(p-1) = conj(f)^2 / N(f) for f = fa + fb*i of nonzero norm
    N(f) = fa^2 + fb^2: the Frobenius map is conjugation for p = 3 (mod 4),
    so f^p = conj(f), and f^(p-1) costs one F_p inversion.  u has norm 1.
    _final_exponentiation and _cofactor_trace share it."""
    n_inv = pow(fa * fa + fb * fb, -1, p)
    return (fa - fb) * (fa + fb) * n_inv % p, -2 * fa * fb * n_inv % p


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


def _fixed_pairing(params: GroupParams, received: GElem, fixed: GElem, n: int):
    """_checked_pairing(params, received, fixed) raised to n >= 0, for a
    received point of the subgroup, by the cached line table of the
    long-lived point fixed.

    On G x G the pairing is symmetric, so for fixed in the subgroup
    e(received, fixed) = e(fixed, received) = f_{q,fixed}(phi(received))
    ^ ((p^2 - 1)/q), and the Miller loop only evaluates fixed's stored
    lines at phi(received): per line one multiplication for its real part
    and one F_{p^2} product, after an unreduced squaring of f where the
    line is a tangent.  received now sits on the right, so the loop is no
    longer its subgroup check, and none is made here: the caller has
    checked it (protocol.derive), or knows it (sessions.World, whose flows
    are emitted or validated on receipt).  A line never vanishes at
    phi(received), whose y is not 0, and neither does an omitted vertical
    (see _checked_pairing).  The power n rides the final exponentiation
    (_final_exponentiation), as protocol.derive's choice 2 raises its
    pairing to x + s.  A fixed point with no table goes to
    _checked_pairing and gt_exp.  Either way the value is always raised to
    n, and counted once under "pairing" and once under "exp_gt", whatever n.
    """
    lines = _line_table(params, fixed)
    if lines is None:
        value = _checked_pairing(params, received, fixed)
        return None if value is None else gt_exp(value, n)
    OPS["pairing"] += 1
    OPS["exp_gt"] += 1
    p = params.p
    if received.is_identity():
        return GTElem(1, 0, p)
    xq, yq = received.x, received.y
    fa, fb = 1, 0
    for square, c1, c0 in lines:
        la = (c1 * xq + c0) % p
        if square:
            fa, fb = (fa - fb) * (fa + fb), 2 * fa * fb
        fa, fb = (fa * la - fb * yq) % p, (fa * yq + fb * la) % p
    return _final_exponentiation(params, fa, fb, n)


# ---------------------------------------------------------------------------
# subgroup membership by a Tate pairing of order h
# ---------------------------------------------------------------------------

# Domain tag for hashing the points of E(F_{p^2}) that _cofactor_lines tries.
_TAG_COFACTOR_POINT = b"\x02"

# Rational points tried against each candidate U before the next one.
_POINTS_PER_CANDIDATE = 8


def _in_group(params: GroupParams, point: GElem) -> bool:
    """Whether a finite point of the curve, which is trusted, lies in G,
    the order-q subgroup: one reduced Tate pairing of order h (Koshelev,
    "Subgroup membership testing on elliptic curves via the Tate
    pairing", J. Cryptographic Engineering, 2023).  Its callers, the one
    list of the code that has tested the point for the curve already:
    in_subgroup, protocol.validate_flow_point, protocol.derive (choice 2),
    keystore.load_identity (after take_point), selfreduction._trace_dlog,
    and _checked_pairing (its identity right argument).

    E(F_{p^2}) = E[p + 1], a product of two cyclic groups of order
    p + 1 = hq, so hE(F_{p^2}) = E[q], and E[q] meets the cyclic E(F_p) in
    G.  For the U of _cofactor_lines in E(F_{p^2})[h], the reduced Tate
    pairing t(P) = f_{h,U}(P)^((p - 1)q) is therefore a character of
    E(F_p)/G, which is cyclic of order h, and _cofactor_lines keeps a U
    whose t has order h at some rational point: t is injective, and P lies
    in G exactly when t(P) = 1.  u = f^(p-1) has norm 1, and a norm-1 w
    has w = 1 exactly when w + conj(w) = 2, so the test is the Lucas value
    V_q(u) = 2 (_lucas_v), two F_p multiplications per bit of q, after a
    Miller loop of |h| <= 21 steps; a [q]-walk makes about eight per bit.

    A line or vertical of U's chain vanishes at P only where P is one of
    the chain's points or their negatives, all multiples of U.  Such a P
    has an order dividing h, and so, being finite, lies outside G: a
    Miller value of 0 answers False.  For the kept U this is a guard that
    never fires: a rational mU has the character t^m, which is 1 on
    E(F_p) as f_{h,mU} has coefficients in F_p, so h | m and mU = O.
    """
    p = params.p
    v1 = _cofactor_trace(p, _cofactor_lines(params), point.x, point.y)
    return v1 is not None and _lucas_v(p, v1, params.q)[0] == 2


def _cofactor_trace(p: int, lines, x: int, y: int):
    """2 Re(u) for u = f_{h,U}(P)^(p-1), P = (x, y), by U's Miller lines,
    or None where a line vanishes at P.

    Each line is stored as (square, ky, ma, mb, ca, cb), and its value at
    P is (ky*y + ma*x + ca) + (mb*x + cb)*i; square says that f is
    squared before it is multiplied in.  u comes from _frobenius_quotient.
    """
    fa, fb = 1, 0
    for square, ky, ma, mb, ca, cb in lines:
        la = ky * y + ma * x + ca
        lb = mb * x + cb
        if square:
            fa, fb = (fa - fb) * (fa + fb), 2 * fa * fb
        fa, fb = (fa * la - fb * lb) % p, (fa * lb + fb * la) % p
    if not (fa * fa + fb * fb) % p:
        return None
    return 2 * _frobenius_quotient(p, fa, fb)[0] % p


@functools.lru_cache(maxsize=128)
def _cofactor_lines(params: GroupParams):
    """The Miller lines of f_{h,U} for _in_group, built on first use.

    For counter = 0, 1, ... up to HASH_COUNTER_BOUND, U = [q]R for the
    counter's point R of E(F_{p^2}) (_cofactor_point), and its lines are
    tried against the next rational points P0 with x = 1, 2, ...  The
    first (U, P0) whose t = f_{h,U}(P0)^((p - 1)q) has order h is kept:
    t^(h/r) is not 1 for each prime r | h, found by trial division (the
    params decoder bounds h by 2^21).  With u = f^(p-1), V_1(t) = V_q(u)
    and V_(h/r)(t), both from _lucas_v, give the test.  Such a t shows that
    U's character has order h, and P0 needs no [q]-walk of its own.  A
    search that finds no such pair raises ParameterSearchError, as
    hash_to_group raises past its counter bound.
    """
    p, h = params.p, params.h
    primes, rest, r = [], h, 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    x0 = 0
    for counter in range(HASH_COUNTER_BOUND):
        u = _cofactor_point(params, counter)
        lines = None if u is None else _cofactor_chain(p, h, *u)
        if lines is None:
            continue
        for _ in range(_POINTS_PER_CANDIDATE):
            x0 += 1
            while (y0 := _fp_sqrt(p, x0 * x0 * x0 + x0)) is None:  # the next rational point with y != 0
                x0 += 1
            v1 = _cofactor_trace(p, lines, x0 % p, y0)
            if v1 is None:
                continue
            vt = _lucas_v(p, v1, params.q)[0]  # V_1(t) = V_q(u)
            if all(_lucas_v(p, vt, h // r)[0] != 2 for r in primes):
                return lines
    raise ParameterSearchError(
        f"no point of order h for the subgroup check within {HASH_COUNTER_BOUND} counters"
    )


def _cofactor_point(params: GroupParams, counter: int):
    """U = [q]R as an affine point over F_{p^2}, an (x, y) pair of (a, b)
    pairs, for the point R = (x, y) of E(F_{p^2}) with x = xa + xb*i hashed
    from counter; None when x^3 + x has no square root, or when x is a
    square in F_{p^2}, which halves the search: x(R) mod squares is a
    homomorphism (2-descent), and the R with a square x form
    E(F_p) + phi(E(F_p)), whose U = [q]R have characters of order at most
    h/2.

    E is defined over F_p, so the Frobenius map pi(x, y) = (conj(x),
    conj(y)) is an endomorphism of it, and pi^2 fixes E(F_{p^2}).
    C = R + pi(R) is fixed by pi, so it lies in E(F_p), and R - pi(R) is
    negated by pi, so its x lies in F_p and its y in i*F_p: it is phi(D)
    for the rational D = (-x, y/i).  Then 2R = C + phi(D), and with
    q = 2k + 1, U = [k]C + phi([k]D) + R: two walks over F_p (_jac_mul)
    with one batched inversion, and four additions over F_{p^2}
    (_fp2_affine_add).  A kept R has x outside F_p, so R is neither pi(R)
    nor -pi(R), and both chords are generic.  Every point of E(F_{p^2})
    has an order that divides p + 1 = hq, so U has an order that divides h.
    """
    p = params.p
    digest = hashlib.sha512(_TAG_COFACTOR_POINT + counter.to_bytes(2, "big")).digest()
    xa, xb = int.from_bytes(digest[:32], "big") % p, int.from_bytes(digest[32:], "big") % p
    if _jacobi(xa * xa + xb * xb, p) != -1:  # x is a square in F_{p^2}
        return None
    sa, sb = (xa - xb) * (xa + xb) + 1, 2 * xa * xb  # x^2 + 1
    root = _fp2_sqrt(p, (xa * sa - xb * sb) % p, (xa * sb + xb * sa) % p)
    if root is None:
        return None
    ya, yb = root
    r = ((xa, xb), (ya, yb))
    _, c = _fp2_affine_add(p, r, ((xa, -xb % p), (ya, -yb % p)))  # R + pi(R)
    _, d = _fp2_affine_add(p, r, ((xa, -xb % p), (-ya % p, yb)))  # R - pi(R)
    k = params.q // 2
    kc, kd = _batch_to_affine(p, [_jac_mul(p, c[0][0], c[1][0], k),
                                  _jac_mul(p, -d[0][0] % p, d[1][1], k)])
    kc = None if kc is None else ((kc[0], 0), (kc[1], 0))
    kd = None if kd is None else ((-kd[0] % p, 0), (0, kd[1]))  # phi([k]D)
    return _fp2_affine_add(p, _fp2_affine_add(p, kc, kd)[1], r)[1]


def _fp2_affine_add(p: int, s, t):
    """(lam, s + t) for points s and t of E(F_{p^2}), each an (x, y) pair
    of (a, b) pairs or None for the identity: lam is the slope of the
    chord through s and t, or of the tangent where s = t, and None where
    that line is vertical or a point is the identity.  One F_{p^2}
    inversion; _cofactor_point and _cofactor_chain share it."""
    if s is None or t is None:
        return None, s or t
    (sx, sy), (tx, ty) = s, t
    if sx == tx:
        if sy != ty or sy == (0, 0):  # t = -s, a point of order 2 doubled included
            return None, None
        xx = _fp2_mul(p, *sx, *sx)
        num, den = (3 * xx[0] + 1, 3 * xx[1]), (2 * sy[0], 2 * sy[1])
    else:
        num, den = (ty[0] - sy[0], ty[1] - sy[1]), (tx[0] - sx[0], tx[1] - sx[1])
    n_inv = pow(den[0] * den[0] + den[1] * den[1], -1, p)  # 1/den = conj(den) / N(den)
    lam = _fp2_mul(p, *num, den[0] * n_inv, -den[1] * n_inv)
    lam2 = _fp2_mul(p, *lam, *lam)
    x3 = (lam2[0] - sx[0] - tx[0]) % p, (lam2[1] - sx[1] - tx[1]) % p
    d = _fp2_mul(p, *lam, sx[0] - x3[0], sx[1] - x3[1])
    return lam, (x3, ((d[0] - sy[0]) % p, (d[1] - sy[1]) % p))


def _cofactor_chain(p: int, h: int, ux, uy):
    """The Miller lines of f_{h,U} for U = (ux, uy) over F_{p^2}, in
    _cofactor_trace's form, or None where U's binary chain of h meets the
    identity or a chord through T = +-U, or does not end at the identity.

    Each doubling step squares f and multiplies in the tangent at T, then
    divides by the vertical at 2T; an add step multiplies in the chord
    through T and U and divides by the vertical at T + U.  The verticals
    x - x_V are not in F_p at a rational P, but dividing by v is
    multiplying by conj(v) / N(v), and N(v) in F_p^* is sent to 1 by the
    power p - 1, so conj(v) = x - conj(x_V) is multiplied in instead.
    Lines y - lam*x + (lam*x_T - y_T) are monic, so f is normalised at
    the identity, as the Tate pairing's value at P needs.  The last
    doubling meets (h/2)U of order 2: its tangent is the vertical x - x_T
    and 2T is the identity.  The chain is affine (_fp2_affine_add), one
    F_{p^2} inversion per step, |h| <= 21 doublings.
    """
    bits = bin(h)[3:]
    u = t = (ux, uy)
    lines = []

    def advance(square, s):  # the line through T and S, then T + S and its vertical
        tx, ty = t
        lam, (vx, vy) = _fp2_affine_add(p, t, s)
        c = _fp2_mul(p, *lam, *tx)
        lines.append((square, 1, -lam[0] % p, -lam[1] % p,
                      (c[0] - ty[0]) % p, (c[1] - ty[1]) % p))
        lines.append((False, 0, 1, 0, -vx[0] % p, vx[1]))
        return vx, vy

    for i, bit in enumerate(bits):
        if t[1] == (0, 0):  # T has order 2, which only the last doubling may meet: h is even
            if i != len(bits) - 1:
                return None
            lines.append((True, 0, 1, 0, -t[0][0] % p, -t[0][1] % p))
            return tuple(lines)
        t = advance(True, t)
        if bit == "1":
            if t[0] == ux:
                return None
            t = advance(False, u)
    return None


def _fp_sqrt(p: int, a: int):
    """The square root a^((p+1)/4) mod p of a nonzero square a, for
    p = 3 (mod 4), or None for 0 and the non-residues: the Jacobi symbol
    decides, and only a square pays for the modexp.  The symbol's
    reciprocity loop costs less than a modexp (about 27 against 47 us at
    k = 128 and 69 against 820 us at k = 512, on a 2-core Xeon under
    Python 3.11), and far less for the small x^3 + x that
    _cofactor_lines scans.  _hash_to_group, _cofactor_lines and
    _fp2_sqrt share it."""
    return pow(a, (p + 1) // 4, p) if _jacobi(a, p) == 1 else None


def _fp2_sqrt(p, a, b):
    """A square root of a + b*i in F_{p^2} for b != 0, or None when it has
    none (or b = 0).  A root c + d*i has c^2 - d^2 = a, 2cd = b and
    c^2 + d^2 = n with n^2 = a^2 + b^2, so c^2 = (a + n)/2 for one of the
    two roots n, and d = b / 2c.  a + b*i is a square exactly when its
    norm is a square in F_p, and then one of (a + n)/2 and (a - n)/2 is a
    nonzero square: their product -b^2/4 is a non-residue, as -1 is."""
    if b % p == 0 or (n := _fp_sqrt(p, a * a + b * b)) is None:
        return None
    half = (p + 1) // 2  # 1/2 mod p
    c = _fp_sqrt(p, (a + n) * half) or _fp_sqrt(p, (a - n) * half)
    return c, b * pow(2 * c, -1, p) % p


# ---------------------------------------------------------------------------
# GT arithmetic
# ---------------------------------------------------------------------------


def gt_mul(z1: GTElem, z2: GTElem) -> GTElem:
    if z1.p != z2.p:
        raise MalformedElementError("GT elements from different fields")
    a, b = _fp2_mul(z1.p, z1.a, z1.b, z2.a, z2.b)
    return GTElem(a, b, z1.p)


def _require_norm_one(z: GTElem) -> None:
    if (z.a * z.a + z.b * z.b) % z.p != 1:
        raise MalformedElementError("GT element does not have norm 1")


def gt_exp(z: GTElem, n: int) -> GTElem:
    """z^n for z of norm a^2 + b^2 = 1, as every element of GT has; any
    other z raises MalformedElementError.  A negative n raises
    conj(z) = 1/z.  The power is _ladder_pow's Lucas ladder.
    """
    OPS["exp_gt"] += 1
    _require_norm_one(z)
    n = int(n)
    b = -z.b if n < 0 else z.b  # z^-n = conj(z)^n
    return _ladder_pow(z.p, z.a, b, abs(n))


def _ladder_pow(p: int, a: int, b: int, n: int) -> GTElem:
    """(a + b*i)^n = A + B*i for a + b*i of norm 1 and n >= 0; gt_exp and
    _final_exponentiation share it.

    A Lucas ladder (_lucas_v) gives V_n and V_n+1 = 2(aA - bB), and z^n is
    recovered from them: A = V_n / 2 and B = (a V_n - V_n+1) / (2b), at
    the cost of one inversion.
    """
    if n == 0:
        return GTElem(1, 0, p)
    if b % p == 0:  # z = a = 1 or -1
        return GTElem(pow(a, n, p), 0, p)
    v, w = _lucas_v(p, 2 * a % p, n)
    half = (p + 1) // 2  # 1/2 mod p
    return GTElem(v * half % p, (a * v - w) * pow(2 * b, -1, p) % p, p)


def _lucas_v(p: int, v1: int, n: int):
    """(V_n, V_n+1) for n >= 1, where V_k = z^k + conj(z)^k for a z of
    norm 1 with V_1 = v1 = 2 Re(z); _ladder_pow and _in_group share it.

    A Lucas ladder (Joye-Quisquater, "Efficient computation of full Lucas
    sequences", 1996): V_k lies in F_p, and with conj(z) = 1/z,
    V_2k = V_k^2 - 2 and V_2k+1 = V_k V_k+1 - V_1, so each bit of n costs
    two F_p multiplications where square-and-multiply in F_{p^2} makes
    about four.
    """
    v, w = v1, (v1 * v1 - 2) % p  # V_1, V_2
    for bit in bin(n)[3:]:
        if bit == "1":
            v, w = (v * w - v1) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - v1) % p
    return v, w


def gt_inv(z: GTElem) -> GTElem:
    """1/z = conj(z) for z of norm 1, as every element of GT has; any other
    z raises MalformedElementError, as in gt_exp."""
    _require_norm_one(z)
    return GTElem(z.a, -z.b % z.p, z.p)


# ---------------------------------------------------------------------------
# hashing and sampling
# ---------------------------------------------------------------------------


def identity_bytes(identity) -> bytes:
    """The bytes an identity stands for, the package's one identity rule: a
    str its strict UTF-8, bytes and bytearray themselves, 1 to 0xFFFF bytes
    (so every identity fits the 2-byte frame of sized); all else is refused."""
    if type(identity) is bytes and 1 <= len(identity) <= 0xFFFF:  # what the rule returns
        return identity
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
    for counter in range(HASH_COUNTER_BOUND):
        digest = hashlib.sha256(
            TAG_HASH_TO_GROUP + ident + counter.to_bytes(2, "big")
        ).digest()
        x = int.from_bytes(digest, "big") % p
        # _fp_sqrt refuses x^3 + x = 0 (x = 0, the order-2 point) too
        y = _fp_sqrt(p, x * x * x + x)
        if y is None:
            continue
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
