"""Random self-reduction for the computational bilinear Diffie-Hellman task.

Given an oracle that sometimes answers e(g, g)^(xyz) on input
(g^x, g^y, g^z), each call here is wrapped in fresh blinding factors so
the oracle only ever sees instances uniform over G^3, and a correct
answer can be unblinded with pairings alone.  Majority voting over many
blinded calls turns an unreliable oracle into a reliable solver.

Everything that depends only on the instance is prepared once per
amplify call (_prepared): its validation, g's fixed-base window table of
signed 6-bit digits (built by bilinear and cached there per base point,
so instances that share g share it), and the products of every subset
of the seven cross pairings that unblinding needs.  Each round then
costs one table walk per blinded point and one multi-exponentiation in
GT, and no pairing.  The multi-exponentiation reads each step's table
index from one int that interleaves the seven exponents' bits, so a
round formats no strings.

Blinding and unblinding each have one path on bare ints, _blind and
_unblind, which randomize and correct call once per query.  The shifts
of a query are the plain triple (a, b, c) of ints: randomize returns it
with the blinded instance, and correct takes it back.  They are one
round of amplify as a public API, and each validates the instance on
every call.  randomize then reads only g's window table, and correct
builds the products table too (_prepared), so only correct pays the
seven pairings.  amplify draws every round's shifts from its rng before
the first query, as randomize draws one round's, and runs every round
through the two helpers: it votes on each candidate's (a, b) pair and
builds one GTElem, for the winner.

The mock oracle that stands in for the adversary answers with a
baby-step giant-step discrete log (Shanks 1971) taken in GT, not in G:
the log of [k]g is that of e([k]g, g) = z^k, z = e(g, g).  Every element
of GT has norm 1, so the trace V_k = z^k + z^-k lies in F_p, stands for
both z^k and z^-k, and follows a Lucas recurrence (Joye-Quisquater 1996)
at one F_p multiplication a step, where a step in G pays an inversion.
The table holds the traces of the m baby steps, m = isqrt(q - 1) + 1, a
giant step covers 2m + 1 residues, and a walk takes at most about
sqrt(q)/2 of them.  The table grows as 2^(k/2) for a k-bit q, so it is
refused above MAX_K_BITS.  Its wrong answers are powers of e(g, g) by
gt_exp.  GT inverses are conjugations (gt_inv), as every element of GT
has norm 1.
"""

import math
from typing import NamedTuple

from idak.bilinear import (
    GElem,
    GTElem,
    _fixed_pairing,
    _fp2_mul,
    _in_group,
    _ladder_pow,
    _line_table,
    _require_on_curve,
    _window_table,
    _window_walk,
    fixed_base_exp,
    gt_exp,
    gt_inv,
    in_subgroup,
    pairing,
)
from idak.errors import MalformedElementError

# the largest q, in bits, whose baby-step table the mock oracle builds: it
# holds about 2^(k/2) traces, 2^16 at k = 32
MAX_K_BITS = 32


class CbdhInstance(NamedTuple):
    """One challenge (g, g^x, g^y, g^z); the exponents stay hidden."""

    g: GElem
    x_point: GElem
    y_point: GElem
    z_point: GElem


def validate_instance(params, inst):
    """Check every component is a subgroup element with a usable base.

    Blinded queries range over all of G, so identity components are
    allowed everywhere except the base point.  A point off the curve or
    outside the subgroup raises the same ValueError.
    """
    if inst.g.is_identity():
        raise ValueError("base point must not be the identity")
    if not all(in_subgroup(params, point) for point in inst):
        raise ValueError("instance point is not in the subgroup")


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


def _prepared(params, inst):
    """Validate the instance once and return its two tables.

    The first is g's window table, from bilinear's cache of them.  The
    second holds, at each 7-bit index, the product of the inverses of the
    cross pairings e(x,y), e(x,z), e(y,z), e(x,g), e(y,g), e(z,g), e(g,g)
    whose bits are set, read from the top bit down.  A failed validation
    raises ValueError before any pairing.
    """
    validate_instance(params, inst)
    p = params.p
    g, xp, yp, zp = inst
    crosses = [
        pairing(params, left, right)
        for left, right in ((xp, yp), (xp, zp), (yp, zp), (xp, g), (yp, g), (zp, g), (g, g))
    ]
    inverses = [gt_inv(z) for z in reversed(crosses)]
    products = [(1, 0)]
    for mask in range(1, 1 << len(inverses)):
        inverse = inverses[(mask & -mask).bit_length() - 1]
        products.append(_fp2_mul(p, *products[mask & (mask - 1)], inverse.a, inverse.b))
    return _window_table(params, g), tuple(products)


def randomize(params, inst, rng):
    """Blind a challenge so its exponents become uniform over Z_q^3.

    Draws the shifts a, b, c from rng, three randrange(q) in that order,
    and returns the blinded instance with the triple (a, b, c): one round
    of amplify, whose shifts are these three draws from its own rng.  Each
    blinded point is the instance point plus [shift]g (see _blind).
    """
    validate_instance(params, inst)
    table = _window_table(params, inst.g)
    q = params.q
    shift = (rng.randrange(q), rng.randrange(q), rng.randrange(q))
    return _blind(params.p, table, inst, *shift), shift


def _blind(p, table, inst, a, b, c):
    """inst with [a]g, [b]g and [c]g added to its x, y and z points, each a
    walk of g's cached window table that starts at the instance point: one
    mixed addition per nonzero signed 6-bit digit of the shift, no
    doubling, and one inversion."""
    return CbdhInstance(
        inst.g,
        _window_walk(p, table, inst.x_point, a),
        _window_walk(p, table, inst.y_point, b),
        _window_walk(p, table, inst.z_point, c),
    )


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

    shift is the triple (a, b, c) that randomize returned with the query.
    Returns the GTElem that one round of amplify would vote for (see
    _unblind).  A w over another field raises MalformedElementError.
    """
    _, products = _prepared(params, inst)
    return GTElem(*_unblind(params, products, w, *shift), params.p)


def _unblind(params, products, w, a, b, c):
    """w with the blinding by shifts a, b, c stripped, as an (a, b) pair.

    The blinded answer is e(g,g) raised to (x+a)(y+b)(z+c); every cross
    term is a pairing of known points, so no exponent is ever needed.
    Their inverses, raised to c, b, a, bc, ac, ab and abc, multiply into
    w in one Straus-Shamir multi-exponentiation: a single squaring chain
    over the bits of q that, at each bit, multiplies in the cached
    product selected by the seven exponent bits.  Those bits come from
    one packed int in which the exponents' bits are interleaved, c's
    highest in each 7-bit column, so bit j's column is
    (packed >> 7j) & 127, the products table's index.  A w over another
    field than params' raises MalformedElementError before any of it.
    """
    p, q = params.p, params.q
    if w.p != p:
        raise MalformedElementError("GT elements from different fields")
    a, b, c = a % q, b % q, c % q
    exponents = (c, b, a, b * c % q, a * c % q, a * b % q, a * b * c % q)
    packed = 0
    for e in exponents:
        packed = packed << 1 | _spread(e)
    fa, fb = 1, 0
    # an F_{p^2} squaring and _fp2_mul, inlined in this hot loop
    for bit in range(7 * (q.bit_length() - 1), -1, -7):
        fa, fb = (fa - fb) * (fa + fb) % p, 2 * fa * fb % p
        index = packed >> bit & 127
        if index:
            pa, pb = products[index]
            fa, fb = (fa * pa - fb * pb) % p, (fa * pb + fb * pa) % p
    return _fp2_mul(p, w.a, w.b, fa, fb)


def amplify(params, oracle, inst, rounds, rng):
    """Plurality vote over independently blinded oracle calls.

    The instance is validated and its tables fetched once, before any
    draw from rng, so a rejected instance consumes none.  Then every
    round's shifts are drawn from rng before the first query, three
    randrange(q) per round as randomize draws them, so an oracle that
    draws from the same rng cannot change them.  Each round blinds and
    unblinds on bare ints and votes for the candidate's (a, b) pair; one
    GTElem is built for the winner.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    p, q = params.p, params.q
    # validation first, so a rejected instance draws nothing from rng
    table, products = _prepared(params, inst)
    shifts = [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(rounds)]
    votes = {}
    for a, b, c in shifts:
        candidate = _unblind(params, products, oracle(_blind(p, table, inst, a, b, c)), a, b, c)
        votes[candidate] = votes.get(candidate, 0) + 1
    # max keeps the first of equal counts, so the first-seen candidate wins a tie
    return GTElem(*max(votes, key=votes.get), p)


def solve_dlog(params, base, target):
    """The k in [0, q) with target = [k]base, by a baby-step giant-step walk
    over the traces of GT (_trace_table, _trace_dlog).

    An off-curve base or target raises MalformedElementError; a base that
    does not generate the subgroup, a target outside it, or a q of more
    than MAX_K_BITS bits, ValueError.
    """
    return _trace_dlog(params, _trace_table(params, base), target)


def _trace_table(params, base):
    """(table, base, z, z^W, W): the baby steps of _trace_dlog for base.

    z = e(base, base) has order q and norm 1, so its trace
    V_j = z^j + z^-j lies in F_p and follows V_(j+1) = V_j V_1 - V_(j-1),
    as in bilinear._lucas_v.  The dict maps V_j to j for 0 <= j <= m,
    m = isqrt(q - 1) + 1, one F_p multiplication each.  V_j = V_k exactly
    when j = +-k (mod q), so one entry stands for j and -j; where both
    are at most m (q <= 7), setdefault keeps the least.  z^W, for the
    stride W = 2m + 1, starts the giant walk.  A base off the curve raises
    MalformedElementError; the identity, a base outside the order-q
    subgroup (which has no line table) or a q of more than MAX_K_BITS bits
    raises ValueError.
    """
    if params.q.bit_length() > MAX_K_BITS:
        raise ValueError(f"the baby-step table is built for q of at most {MAX_K_BITS} bits")
    _require_on_curve(params, base)
    if _line_table(params, base) is None:
        raise ValueError("base must generate the order-q subgroup")
    p = params.p
    m = math.isqrt(params.q - 1) + 1
    z = _fixed_pairing(params, base, base, 1)
    v1 = 2 * z.a % p
    prev, v = 2, v1
    table = {prev: 0, v: 1}
    for j in range(2, m + 1):
        prev, v = v, (v * v1 - prev) % p
        table.setdefault(v, j)
    width = 2 * m + 1
    return table, base, z, _ladder_pow(p, z.a, z.b, width), width


def _trace_dlog(params, traces, target):
    """The discrete log of target to the base of traces, _trace_table's.

    D = e(target, base) = z^k is taken on base's cached Miller lines
    (bilinear._fixed_pairing).  Giant step i tests the trace V_(k - iW) of
    D / z^(iW) against the table; by V_(a - W) = V_a V_W - V_(a + W) each
    step costs one F_p multiplication and no inversion.  A hit on j gives
    k = iW +- j, and one ladder of z to iW + j decides the sign.  Every k
    in [0, q) lies within m of some iW (mod q) with i <= q // W, so the
    walk ends by then.  The target is tested for the curve (MalformedElementError),
    then for the subgroup (ValueError), before any walk.
    """
    _require_on_curve(params, target)
    if not (target.is_identity() or _in_group(params, target)):
        raise ValueError("target is outside the subgroup generated by base")
    table, base, z, stride, width = traces
    p, q = params.p, params.q
    d = _fixed_pairing(params, target, base, 1)
    vw = 2 * stride.a % p
    # V_k and V_(k - W), the traces of D and of D * conj(z^W)
    prev, v = 2 * d.a % p, 2 * (d.a * stride.a + d.b * stride.b) % p
    i = 0
    while (j := table.get(prev)) is None:
        i += 1
        prev, v = v, (v * vw - prev) % p
    k = (i * width + j) % q
    return k if _ladder_pow(p, z.a, z.b, k) == d else (i * width - j) % q


class MockCbdhOracle:
    """Stand-in adversary answering correctly with probability delta.

    Correct answers come from a discrete log of the third component over
    the traces of GT (_trace_dlog), so q may have at most MAX_K_BITS bits
    (ValueError otherwise).  Construction checks that g generates the
    order-q subgroup and builds the table of the traces of e(g, g)^j for
    j <= m = isqrt(q - 1) + 1.  Each correct answer then pays one subgroup
    check and one pairing on g's cached lines, at most q // (2m+1) + 1
    giant steps of one F_p multiplication each and one ladder for the
    log, and one pairing and one exponentiation in GT for the answer; that
    pairing raises MalformedElementError for an x point outside the
    subgroup.  Wrong answers are uniform over the target group:
    gt_exp(e(g, g), r) for one randrange(q) draw r, with e(g, g) read
    from the trace table, which holds it as z.
    """

    def __init__(self, params, g, delta, rng):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.params = params
        self.delta = delta
        self.rng = rng
        self.queries = 0
        self._traces = _trace_table(params, g)

    def __call__(self, inst):
        self.queries += 1
        params = self.params
        if self.rng.random() < self.delta:
            z = _trace_dlog(params, self._traces, inst.z_point)
            return gt_exp(pairing(params, inst.x_point, inst.y_point), z)
        return gt_exp(self._traces[2], self.rng.randrange(params.q))  # e(g, g)^r
