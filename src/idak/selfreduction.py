"""Random self-reduction for the computational bilinear Diffie-Hellman task.

Given an oracle that sometimes answers e(g, g)^(xyz) on input
(g^x, g^y, g^z), each call here is wrapped in fresh blinding factors so
the oracle only ever sees instances uniform over G^3, and a correct
answer can be unblinded with pairings alone.  Majority voting over many
blinded calls turns an unreliable oracle into a reliable solver.

Everything that depends only on the instance is prepared once and cached
for the most recent instance: its validation, g's fixed-base window
table of signed 6-bit digits (built by bilinear and cached there per
base point, so instances that share g share it), and the products of
every subset of the seven cross pairings that unblinding needs.  Each
round then costs one table walk per blinded point and one
multi-exponentiation in GT, and no pairing.  The multi-exponentiation
reads each step's table index from one int that interleaves the seven
exponents' bits, so a round formats no strings.

The mock oracle that stands in for the adversary answers with a
baby-step giant-step discrete log (Shanks 1971).  Its table holds the m
baby steps [j]g, m = isqrt(q - 1) + 1, keyed by x-coordinate so that
each entry also stands for [-j]g; a giant step then covers 2m + 1
residues, and a walk takes at most about sqrt(q)/2 of them.  The table
grows as 2^(k/2) for a k-bit q, so it is refused above MAX_K_BITS.  Its
wrong answers are powers of e(g, g) through a window table of that
element that the mock itself keeps, unsigned and 4 bits wide, so they
square nothing.
"""

import functools
import math
import random
from dataclasses import dataclass

from idak.bilinear import (
    GElem,
    GTElem,
    _affine_add,
    _fp2_inv,
    _fp2_mul,
    _require_on_curve,
    _window_table,
    _window_walk,
    fixed_base_exp,
    gt_exp,
    gt_mul,
    in_subgroup,
    is_on_curve,
    pairing,
    scalar_exp,
)

# the largest q, in bits, whose baby-step table the mock oracle builds: at
# k = 32 about 2^16 entries, under a second and a few tens of MiB
MAX_K_BITS = 32


@dataclass(frozen=True)
class CbdhInstance:
    """One challenge (g, g^x, g^y, g^z); the exponents stay hidden."""

    g: GElem
    x_point: GElem
    y_point: GElem
    z_point: GElem

    def points(self):
        return (self.g, self.x_point, self.y_point, self.z_point)


@dataclass(frozen=True)
class Blinding:
    """Shifts applied to one query; needed to unblind the answer."""

    a: int
    b: int
    c: int


def validate_instance(params, inst):
    """Check every component is a subgroup element with a usable base.

    Blinded queries range over all of G, so identity components are
    allowed everywhere except the base point.
    """
    if inst.g.is_identity():
        raise ValueError("base point must not be the identity")
    for point in inst.points():
        if not is_on_curve(params, point):
            raise ValueError("instance point is not on the curve")
        if not in_subgroup(params, point):
            raise ValueError("instance point is outside the subgroup")


def make_instance(params, g, rng):
    """Sample a fresh challenge, returning it with its true answer.  A g
    outside the order-q subgroup raises MalformedElementError from pairing."""
    q = params.q
    x = 1 + rng.randrange(q - 1)
    y = 1 + rng.randrange(q - 1)
    z = 1 + rng.randrange(q - 1)
    inst = CbdhInstance(
        g,
        fixed_base_exp(params, g, x),
        fixed_base_exp(params, g, y),
        fixed_base_exp(params, g, z),
    )
    truth = gt_exp(pairing(params, g, g), x * y * z % q)
    return inst, truth


@functools.lru_cache(maxsize=1)
def _prepared(params, inst):
    """Validate the instance once and return its two tables.

    The first is g's window table, from bilinear's cache of them.  The
    second holds, at each 7-bit index, the product of the inverses of the
    cross pairings e(x,y), e(x,z), e(y,z), e(x,g), e(y,g), e(z,g), e(g,g)
    whose bits are set, read from the top bit down.  A failed validation
    raises, so it is never cached.
    """
    validate_instance(params, inst)
    p = params.p
    g, xp, yp, zp = inst.points()
    crosses = [
        pairing(params, left, right)
        for left, right in ((xp, yp), (xp, zp), (yp, zp), (xp, g), (yp, g), (zp, g), (g, g))
    ]
    inverses = [_fp2_inv(p, z.a, z.b) for z in reversed(crosses)]
    products = [(1, 0)]
    for mask in range(1, 1 << len(inverses)):
        low = (mask & -mask).bit_length() - 1
        products.append(_fp2_mul(p, *products[mask & (mask - 1)], *inverses[low]))
    return _window_table(params, g), tuple(products)


def randomize(params, inst, rng):
    """Blind a challenge so its exponents become uniform over Z_q^3.

    Each blinded point is the instance point plus [shift]g: a walk of
    g's cached window table that starts at the instance point, so it
    costs one mixed addition per nonzero signed 6-bit digit of the shift,
    no doubling, and one inversion.
    """
    table, _ = _prepared(params, inst)
    p, q = params.p, params.q
    shift = Blinding(rng.randrange(q), rng.randrange(q), rng.randrange(q))
    blinded = CbdhInstance(
        inst.g,
        _window_walk(p, table, inst.x_point, shift.a),
        _window_walk(p, table, inst.y_point, shift.b),
        _window_walk(p, table, inst.z_point, shift.c),
    )
    return blinded, shift


# _SPREAD[byte] has bit i of byte at bit 7i, so that seven spread words,
# each shifted by its place, interleave into 7-bit columns
_SPREAD = tuple(sum((byte >> i & 1) << 7 * i for i in range(8)) for byte in range(256))


def _spread(n):
    """n >= 0 with bit i moved to bit 7i, one byte at a time."""
    out, shift = 0, 0
    while n:
        out |= _SPREAD[n & 255] << shift
        n >>= 8
        shift += 56
    return out


def correct(params, w, inst, shift):
    """Strip blinding from the oracle answer w for the shifted instance.

    The blinded answer is e(g,g) raised to (x+a)(y+b)(z+c); every cross
    term is a pairing of known points, so no exponent is ever needed.
    Their inverses, raised to c, b, a, bc, ac, ab and abc, multiply into
    w in one Straus-Shamir multi-exponentiation: a single squaring chain
    over the bits of q that, at each bit, multiplies in the cached
    product selected by the seven exponent bits.  Those bits come from
    one packed int in which the exponents' bits are interleaved, c's
    highest in each 7-bit column, so bit j's column is
    (packed >> 7j) & 127, the products table's index.
    """
    _, products = _prepared(params, inst)
    p, q = params.p, params.q
    a, b, c = shift.a % q, shift.b % q, shift.c % q
    exponents = (c, b, a, b * c % q, a * c % q, a * b % q, a * b * c % q)
    packed = 0
    for e in exponents:
        packed = packed << 1 | _spread(e)
    fa, fb = 1, 0
    # _fp2_sqr and _fp2_mul, inlined in this hot loop
    for bit in range(7 * (q.bit_length() - 1), -1, -7):
        fa, fb = (fa - fb) * (fa + fb) % p, 2 * fa * fb % p
        index = packed >> bit & 127
        if index:
            pa, pb = products[index]
            fa, fb = (fa * pa - fb * pb) % p, (fa * pb + fb * pa) % p
    return gt_mul(w, GTElem(fa, fb, p))


def amplify(params, oracle, inst, rounds, rng):
    """Plurality vote over independently blinded oracle calls."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
    # pre-drawn seeds keep each round's randomness independent of how
    # the oracle itself consumes rng state
    seeds = [rng.getrandbits(64) for _ in range(rounds)]
    votes = {}
    for seed in seeds:
        round_rng = random.Random(seed)
        blinded, shift = randomize(params, inst, round_rng)
        candidate = correct(params, oracle(blinded), inst, shift)
        votes[candidate] = votes.get(candidate, 0) + 1
    # max keeps the first of equal counts, so the first-seen candidate wins a tie
    return max(votes, key=votes.get)


def solve_dlog(params, base, target):
    """Baby-step giant-step discrete log in the order-q subgroup.

    An off-curve base or target raises MalformedElementError; a base that
    does not generate the subgroup, or a target outside it, ValueError.
    """
    return _dlog_from_table(params, _baby_table(params, base), target)


def _baby_table(params, base):
    """The baby steps keyed by x, and the giant stride [-(2m+1)]base.

    For m = isqrt(q - 1) + 1 the dict maps the x-coordinate of [j]base,
    for 1 <= j <= m, to (j, y).  [j]base and [-j]base share that x and
    differ in y, so one entry answers both, which holds only if base has
    order q: the identity or a base outside the order-q subgroup raises
    ValueError, and so does a q of more than MAX_K_BITS bits.
    """
    if params.q.bit_length() > MAX_K_BITS:
        raise ValueError(f"the baby-step table is built for q of at most {MAX_K_BITS} bits")
    _require_on_curve(params, base)
    if base.is_identity() or not in_subgroup(params, base):
        raise ValueError("base must generate the order-q subgroup")
    p = params.p
    m = math.isqrt(params.q - 1) + 1
    bx, by = base.x, base.y
    double = _affine_add(p, base, base)
    x, y = double.x, double.y
    table = {bx: (1, by), x: (2, y)}
    # for 2 < j <= m < q - 1, [j-1]base is neither base nor -base, so
    # each further step is a chord
    for j in range(3, m + 1):
        x, y = _chord(p, x, y, bx, by)
        table.setdefault(x, (j, y))
    return table, scalar_exp(params, base, -(2 * m + 1))


def _chord(p, x1, y1, x2, y2):
    """The affine sum of two points with distinct x, as bare ints.  Every
    step needs an affine x, so this beats bilinear's Jacobian law: baby
    steps by mixed additions and one batched inversion built the table in
    0.60 ms, not 0.50, at k = 16 and 351 ms, not 249, at k = 32 (medians
    on a 2-core Xeon, Python 3.11)."""
    lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _dlog_from_table(params, baby, target):
    """Walk target - [i(2m+1)]base until it lands within m of the identity.

    Each giant step is one chord addition on bare ints, with one
    inversion; a step whose x equals the stride's (a doubling or a
    cancellation), or an identity stride, goes through _affine_add.
    """
    _require_on_curve(params, target)
    table, stride = baby
    p, q = params.p, params.q
    width = 2 * (math.isqrt(q - 1) + 1) + 1
    sx, sy = stride.x, stride.y
    x, y = target.x, target.y
    # giant step i covers the residues i*width - m .. i*width + m
    for i in range(q // width + 1):
        if x is None:
            return i * width
        hit = table.get(x)
        if hit is not None:
            j, yj = hit
            return (i * width + (j if y == yj else -j)) % q
        if sx is None or x == sx:
            gamma = _affine_add(p, GElem(x, y), stride)
            x, y = gamma.x, gamma.y
        else:  # _chord, inlined in this hot loop
            lam = (sy - y) * pow(sx - x, -1, p) % p
            x3 = (lam * lam - x - sx) % p
            x, y = x3, (lam * (x - x3) - y) % p
    raise ValueError("target is outside the subgroup generated by base")


class MockCbdhOracle:
    """Stand-in adversary answering correctly with probability delta.

    Correct answers come from a baby-step giant-step discrete log of the
    third component, so q may have at most MAX_K_BITS bits (ValueError
    otherwise).  Construction checks that g generates the order-q subgroup and
    builds the x-keyed table of m = isqrt(q - 1) + 1 baby steps: m chord
    additions, one subgroup check and one scalar multiplication for the
    stride [-(2m+1)]g.  Each correct answer then walks at most
    q // (2m+1) + 1 giant steps, about sqrt(q)/4 on average, each one
    dict lookup and one chord addition with one inversion on bare ints,
    and pays one pairing and one exponentiation in GT; the pairing raises
    MalformedElementError for an x point outside the subgroup.  Wrong
    answers are uniform over the target group: e(g, g)^r for one
    randrange(q) draw r.
    The mock raises e(g, g) through its own 4-bit window table, rows
    e(g, g)^(j * 16^i) for j < 16 and i < ceil(|q| / 4), kept in
    _gt_rows.  The table is built on the first wrong answer, not here, so
    construction costs no more.  A wrong answer then costs one F_{p^2}
    multiplication per nonzero 4-bit digit of r, at most 4 at k = 16,
    where a full gt_exp makes 15 squarings and about 8 multiplications.
    """

    def __init__(self, params, g, delta, rng):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.params = params
        self.delta = delta
        self.rng = rng
        self.queries = 0
        self._table = _baby_table(params, g)
        self._base_gt = pairing(params, g, g)
        self._gt_rows = None

    def __call__(self, inst):
        self.queries += 1
        params = self.params
        if self.rng.random() < self.delta:
            z = _dlog_from_table(params, self._table, inst.z_point)
            return gt_exp(pairing(params, inst.x_point, inst.y_point), z)
        return self._base_gt_power(self.rng.randrange(params.q))

    def _base_gt_power(self, r):
        """e(g, g)^r for 0 <= r < q, one row of the window table per
        4-bit digit of r; the table is built on the first call."""
        p = self.params.p
        if self._gt_rows is None:
            base = self._base_gt.a, self._base_gt.b
            self._gt_rows = []
            for _ in range(-(-self.params.q.bit_length() // 4)):
                row = [(1, 0)]
                for _ in range(15):
                    row.append(_fp2_mul(p, *row[-1], *base))
                base = _fp2_mul(p, *row[-1], *base)
                self._gt_rows.append(row)
        fa, fb = 1, 0
        for row in self._gt_rows:
            if r & 15:
                fa, fb = _fp2_mul(p, fa, fb, *row[r & 15])
            r >>= 4
        return GTElem(fa, fb, p)
