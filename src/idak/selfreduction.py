"""Random self-reduction for the computational bilinear Diffie-Hellman task.

Given an oracle that sometimes answers e(g, g)^(xyz) on input
(g^x, g^y, g^z), each call here is wrapped in fresh blinding factors so
the oracle only ever sees instances uniform over G^3, and a correct
answer can be unblinded with pairings alone.  Majority voting over many
blinded calls turns an unreliable oracle into a reliable solver.
"""

import math
import random
from dataclasses import dataclass

from idak.bilinear import (
    GElem,
    gt_exp,
    gt_inv,
    gt_mul,
    in_subgroup,
    is_on_curve,
    pairing,
    point_add,
    scalar_exp,
)


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
    """Sample a fresh challenge, returning it with its true answer."""
    q = params.q
    x = 1 + rng.randrange(q - 1)
    y = 1 + rng.randrange(q - 1)
    z = 1 + rng.randrange(q - 1)
    inst = CbdhInstance(
        g,
        scalar_exp(params, g, x),
        scalar_exp(params, g, y),
        scalar_exp(params, g, z),
    )
    truth = gt_exp(pairing(params, g, g), x * y * z % q)
    return inst, truth


def randomize(params, inst, rng):
    """Blind a challenge so its exponents become uniform over Z_q^3."""
    validate_instance(params, inst)
    q = params.q
    shift = Blinding(rng.randrange(q), rng.randrange(q), rng.randrange(q))
    blinded = CbdhInstance(
        inst.g,
        point_add(params, inst.x_point, scalar_exp(params, inst.g, shift.a)),
        point_add(params, inst.y_point, scalar_exp(params, inst.g, shift.b)),
        point_add(params, inst.z_point, scalar_exp(params, inst.g, shift.c)),
    )
    return blinded, shift


def correct(params, w, inst, shift):
    """Strip blinding from the oracle answer w for the shifted instance.

    The blinded answer is e(g,g) raised to (x+a)(y+b)(z+c); every cross
    term is a pairing of known points, so no exponent is ever needed.
    """
    q = params.q
    g, xp, yp, zp = inst.points()
    a, b, c = shift.a, shift.b, shift.c
    surplus = gt_exp(pairing(params, xp, yp), c)
    surplus = gt_mul(surplus, gt_exp(pairing(params, xp, zp), b))
    surplus = gt_mul(surplus, gt_exp(pairing(params, yp, zp), a))
    surplus = gt_mul(surplus, gt_exp(pairing(params, xp, g), b * c % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, yp, g), a * c % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, zp, g), a * b % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, g, g), a * b * c % q))
    return gt_mul(w, gt_inv(surplus))


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
    winner, best = None, 0
    for candidate, count in votes.items():  # insertion order breaks ties
        if count > best:
            winner, best = candidate, count
    return winner


def solve_dlog(params, base, target):
    """Baby-step giant-step discrete log in the order-q subgroup."""
    table = _baby_table(params, base)
    return _dlog_from_table(params, base, table, target)


def _baby_table(params, base):
    m = math.isqrt(params.q - 1) + 1
    table = {}
    step = GElem(None, None)
    for j in range(m):
        table.setdefault(step, j)
        step = point_add(params, step, base)
    return table


def _dlog_from_table(params, base, table, target):
    m = math.isqrt(params.q - 1) + 1
    stride = scalar_exp(params, base, -m)
    gamma = target
    for i in range(m + 1):
        j = table.get(gamma)
        if j is not None:
            return (i * m + j) % params.q
        gamma = point_add(params, gamma, stride)
    raise ValueError("target is outside the subgroup generated by base")


class MockCbdhOracle:
    """Stand-in adversary answering correctly with probability delta.

    Correct answers come from a brute-force discrete log of the third
    component, so this only works on the small curves used in tests.
    Wrong answers are uniform over the target group.
    """

    def __init__(self, params, g, delta, rng):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.params = params
        self.g = g
        self.delta = delta
        self.rng = rng
        self.queries = 0
        self._table = _baby_table(params, g)
        self._base_gt = pairing(params, g, g)

    def __call__(self, inst):
        self.queries += 1
        params = self.params
        if self.rng.random() < self.delta:
            z = _dlog_from_table(params, self.g, self._table, inst.z_point)
            return gt_exp(pairing(params, inst.x_point, inst.y_point), z)
        return gt_exp(self._base_gt, self.rng.randrange(params.q))
