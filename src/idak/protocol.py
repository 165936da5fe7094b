"""Identity-based authenticated key agreement.

A trusted authority runs setup() to fix public parameters and a master
secret alpha, and hands each party the identity key d_id = H(id)^alpha
via extract().  A session is one flow in each direction,

    initiator:  R_A = g_A^x        responder:  R_B = g_B^y

with g_A = H(id_A), g_B = H(id_B).  Both sides blend the flows through a
short public function pi and land on the same GT element

    sk = e(g_A, g_B) ^ ((x + s_A) * (y + s_B) * alpha),

where s_A = pi(R_A, R_B) and s_B = pi(R_B, R_A).  No party ever learns
alpha, and no explicit key confirmation flow is needed.

derive() implements the four evaluation schedules of that formula, choice
1 or 2 with or without precomputation, and reports the operations its
online phase ran, counted where they run (bilinear.OPS), so the
schedules' costs can be compared against the expected table.  The
perfect-forward-secrecy hardened variant adds one extra responder element
and hashes an ephemeral Diffie-Hellman value into the session key.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Literal

from .bilinear import (
    GElem,
    GTElem,
    GroupParams,
    OPS,
    _checked_pairing,
    _fixed_base_add,
    _fixed_pairing,
    encode_gt,
    encode_point,
    fixed_base_exp,
    gt_exp,
    hash_to_group,
    identity_bytes,
    in_subgroup,
    instance_generate,
    is_on_curve,
    pairing,
    random_scalar,
    scalar_exp,
    sized,
    take_point,
    take_sized,
)
from .errors import (
    DegenerateExponentError,
    InvalidEphemeralError,
    InvalidFlowError,
    MalformedElementError,
)

# Domain tags (0x01 is taken by hash_to_group).
TAG_PI = b"\x02"
TAG_PFS_KDF = b"\x03"

DEFAULT_KDF_TAG = b"idak-kdf-v1"

# Fixed identity whose curve image serves as the public base point.
GENERATOR_ID = b"idak-base-point"

FLOW_VERSION = 0x01
ROLE_BYTES = {"initiator": 0x00, "responder": 0x01}

Role = Literal["initiator", "responder"]


class PiVariant(Enum):
    """How the two flows are compressed into the short exponents s_A, s_B."""

    HASH_HALF = "hash-half"
    XOR_HALF = "xor-half"
    FIRST_ONLY = "first-only"


@dataclass(frozen=True)
class SystemParams:
    """The group and pi variant; the base point g = H(GENERATOR_ID) is
    fixed by the group, so it is read from hash_to_group's cache."""

    group: GroupParams
    pi_variant: PiVariant = PiVariant.HASH_HALF

    @property
    def g(self) -> GElem:
        return hash_to_group(self.group, GENERATOR_ID)


@dataclass(frozen=True)
class IdentityKey:
    identity: bytes
    g_id: GElem
    d_id: GElem


@dataclass(frozen=True)
class FlowMessage:
    r: GElem


@dataclass(frozen=True)
class SharedSecret:
    value: GTElem


@dataclass(frozen=True)
class SessionKey:
    key: bytes


@dataclass(frozen=True)
class DeriveStrategy:
    choice: int
    precomputed: bool

    def label(self) -> str:
        return f"c{self.choice}-{'pre' if self.precomputed else 'nopre'}"


STRATEGIES = (
    DeriveStrategy(1, False),
    DeriveStrategy(1, True),
    DeriveStrategy(2, False),
    DeriveStrategy(2, True),
)


def parse_strategy(label: str) -> DeriveStrategy:
    for strategy in STRATEGIES:
        if strategy.label() == label:
            return strategy
    raise ValueError(f"unknown strategy {label!r}")


@dataclass
class OpCounts:
    """Online-phase operation counts of one derivation, read from
    bilinear.OPS: the one map from the kinds it observes to a row of
    EXPECTED_COSTS.

    A "pairing" counts 1 to pairings and an "exp_gt" 1 to exp_gt.  An
    "exp_g", a group exponentiation from the identity, counts 1.0 to
    exp_g.  An "exp_g_add", g^s * R for a pi output s, counts 0.5 to exp_g
    (s is half length) and 1 to mul_g.  Without precomputation the party's
    own flow g_id^x, which initiate computes outside derive, adds 1.0 to
    exp_g.
    """

    pairings: int = 0
    exp_g: float = 0.0
    mul_g: int = 0
    exp_gt: int = 0

    @classmethod
    def since(cls, before: dict, precomputed: bool) -> OpCounts:
        """The counts of the work run since before = OPS.copy()."""
        fused = OPS["exp_g_add"] - before["exp_g_add"]
        return cls(  # positional: keywords would double the cost of this call
            OPS["pairing"] - before["pairing"],
            OPS["exp_g"] - before["exp_g"] + 0.5 * fused + (0.0 if precomputed else 1.0),
            fused,
            OPS["exp_gt"] - before["exp_gt"],
        )


# expected online cost of each derivation strategy:
# (pairings, exp_g, mul_g, exp_gt), pi-length exponents weighted 0.5
EXPECTED_COSTS = {
    "c1-nopre": (1, 2.5, 1, 0),
    "c2-nopre": (1, 1.5, 1, 1),
    "c1-pre": (1, 1.0, 2, 0),
    "c2-pre": (1, 0.5, 1, 1),
}


def seeded_rng(label: str, seed) -> random.Random:
    """The stream named label under seed, or an OS-seeded one when seed is None."""
    if seed is None:
        return random.Random()
    seed_bytes = seed if isinstance(seed, bytes) else str(seed).encode("utf-8")
    return random.Random(label.encode("utf-8") + b":" + seed_bytes)


# ---------------------------------------------------------------------------
# authority operations
# ---------------------------------------------------------------------------


def setup(
    k_bits: int,
    seed=None,
    pi_variant: PiVariant = PiVariant.HASH_HALF,
) -> tuple[SystemParams, int]:
    """Generate public parameters and the master secret alpha, 1 <= alpha < q."""
    group = instance_generate(k_bits, seed)
    alpha = random_scalar(group, seeded_rng("idak-master", seed))
    return SystemParams(group, pi_variant), alpha


def extract(params: SystemParams, alpha: int, identity) -> IdentityKey:
    """Issue the identity key d_id = H(id)^alpha; alpha must lie in [1, q)."""
    ident = identity_bytes(identity)
    if not 1 <= alpha < params.group.q:
        raise InvalidEphemeralError("master secret out of range")
    g_id = hash_to_group(params.group, ident)
    d_id = scalar_exp(params.group, g_id, alpha)
    return IdentityKey(identity=ident, g_id=g_id, d_id=d_id)


# ---------------------------------------------------------------------------
# the pi compression
# ---------------------------------------------------------------------------


def _nonzero(value: int) -> int:
    # the codomain excludes zero; zero would erase the ephemeral binding
    return value if value != 0 else 1


def xor_half_value(x_first: int, x_second: int, field_bits: int) -> int:
    """Bare arithmetic of the xor variant: xor, keep the low half bits."""
    return _nonzero((x_first ^ x_second) % (1 << (field_bits // 2)))


def pi_value(params: SystemParams, first: GElem, second: GElem) -> int:
    """Compress an ordered flow pair into a short nonzero exponent."""
    if first.is_identity() or second.is_identity():
        raise InvalidFlowError("pi is undefined on the identity")
    group = params.group
    variant = params.pi_variant
    if variant is PiVariant.XOR_HALF:
        return xor_half_value(first.x, second.x, group.p.bit_length())
    half_bits = (group.q.bit_length() + 1) // 2
    if variant is PiVariant.FIRST_ONLY:
        material = TAG_PI + encode_point(group, first)
    else:
        material = TAG_PI + encode_point(group, first) + encode_point(group, second)
    digest = hashlib.sha256(material).digest()
    return _nonzero(int.from_bytes(digest, "big") % (1 << half_bits))


def _blend(params: SystemParams, g_id: GElem, r: GElem, r_other: GElem) -> GElem:
    """g_id^pi(R, R') * R, a side's blend of long-term point and flow R.

    One walk of g_id's window table that starts at R, so adding R costs
    no inversion and no curve check.
    """
    return _fixed_base_add(params.group, g_id, pi_value(params, r, r_other), r)


# ---------------------------------------------------------------------------
# exchange
# ---------------------------------------------------------------------------


def initiate(params: SystemParams, own: IdentityKey, rng: random.Random):
    """Draw an ephemeral x and emit the flow g_id^x.

    The responder's flow is computed the same way, so both roles use this.
    """
    x = random_scalar(params.group, rng)
    return x, FlowMessage(r=fixed_base_exp(params.group, own.g_id, x))


def _check_flow_form(params: SystemParams, point: GElem) -> None:
    """The checks of a received point that come before its subgroup check."""
    if not is_on_curve(params.group, point):
        raise InvalidFlowError("flow point is not on the curve")
    if point.is_identity():
        raise InvalidFlowError("flow point is the identity")


def validate_flow_point(params: SystemParams, point: GElem) -> None:
    """Reject flows outside the proper subgroup before they reach a key."""
    _check_flow_form(params, point)
    _require_in_subgroup(in_subgroup(params.group, point))


def _require_in_subgroup(in_group: bool) -> None:
    if not in_group:
        raise InvalidFlowError("flow point is outside the order-q subgroup")


def derive(
    params: SystemParams,
    own: IdentityKey,
    own_x: int,
    own_msg: FlowMessage,
    peer_id,
    peer_msg: FlowMessage,
    role: Role,
    strategy: DeriveStrategy = DeriveStrategy(1, False),
) -> tuple[SharedSecret, OpCounts]:
    """Compute the shared GT secret for one side of a completed exchange.

    All four strategies evaluate the same element; they differ in where
    the exponentiations land and whether the party's own flow work was
    done ahead of time.  A combined exponent that vanishes mod q is
    rejected: the responder drops the session and an initiator is
    expected to retry with a fresh ephemeral.

    Both flow points are checked for the curve and the identity up front,
    and are trusted from then on.  The received point's subgroup check is
    part of the pairing, which takes the blend g_peer^s_peer * R_peer, in
    the subgroup exactly when R_peer is: choice 1 passes it as the left
    argument, whose Miller loop is the check (bilinear._checked_pairing),
    and choice 2 pairs it against d_id's cached lines after an explicit
    [q]-walk (bilinear._fixed_pairing).  Faults are reported in the order
    the checks run: role and strategy; own_x's range; the received point's
    curve, then identity; the own flow; the peer identity; the received
    point's subgroup; the own exponent vanished; the peer exponent
    vanished.

    s_own = pi(R_own, R_peer) and s_peer = pi(R_peer, R_own) in either role,
    so the result does not depend on role, which is only checked.  The
    counts are what bilinear.OPS saw over the online phase (OpCounts).
    """
    if role not in ROLE_BYTES:
        raise ValueError(f"unknown role {role!r}")
    if strategy.choice not in (1, 2):
        raise ValueError(f"unknown strategy choice {strategy.choice}")
    group = params.group
    if not 1 <= own_x < group.q:
        raise InvalidEphemeralError("ephemeral exponent out of range")
    _check_flow_form(params, peer_msg.r)
    if not is_on_curve(group, own_msg.r) or own_msg.r.is_identity():
        raise InvalidFlowError("own flow point is invalid")

    own_s = pi_value(params, own_msg.r, peer_msg.r)
    own_exp = (own_x + own_s) % group.q

    if strategy.choice == 1 and strategy.precomputed:
        # d_id^own_x is assumed done offline alongside the flow, so it
        # runs before the online counts start; it raises nothing
        offline_part = fixed_base_exp(group, own.d_id, own_x)

    before = OPS.copy()
    blended_peer = _blend(params, hash_to_group(group, peer_id), peer_msg.r, own_msg.r)
    if strategy.choice == 2:
        # d_id is long-lived: its cached Miller lines are evaluated at the
        # blend, after an explicit subgroup walk of the blend
        shared = _fixed_pairing(group, blended_peer, own.d_id)
    else:
        if strategy.precomputed:
            # the online d_id^own_s is a walk of d_id's table from offline_part
            own_point = _fixed_base_add(group, own.d_id, own_s, offline_part)
        else:
            own_point = fixed_base_exp(group, own.d_id, own_exp)
        shared = _checked_pairing(group, blended_peer, own_point)
    _require_in_subgroup(shared is not None)
    # a vanishing exponent is reported after the pairing, because the
    # pairing holds the received point's subgroup check
    if own_exp == 0:
        raise DegenerateExponentError("own combined exponent vanished mod q")
    if blended_peer.is_identity():
        raise DegenerateExponentError("peer combined exponent vanished mod q")
    if strategy.choice == 2:
        shared = gt_exp(shared, own_exp)
    return SharedSecret(value=shared), OpCounts.since(before, strategy.precomputed)


def session_key(
    params: SystemParams,
    sk: SharedSecret,
    id_a,
    id_b,
    r_a: FlowMessage,
    r_b: FlowMessage,
) -> SessionKey:
    """Bind the GT secret to identities and transcript, KDF to 32 bytes."""
    material = (
        DEFAULT_KDF_TAG
        + encode_gt(params.group, sk.value)
        + identity_bytes(id_a)
        + identity_bytes(id_b)
        + encode_point(params.group, r_a.r)
        + encode_point(params.group, r_b.r)
    )
    return SessionKey(key=hashlib.sha256(material).digest())


def initiator_first(own_id, own_msg: FlowMessage, peer_id, peer_msg: FlowMessage, role: Role):
    """One side's view of an exchange as (id_A, id_B, R_A, R_B), the
    initiator first: the binding that session_key hashes in that order."""
    if role == "initiator":
        return own_id, peer_id, own_msg, peer_msg
    return peer_id, own_id, peer_msg, own_msg


# ---------------------------------------------------------------------------
# forward-secrecy hardened variant
# ---------------------------------------------------------------------------


def pfs_respond(params: SystemParams, own: IdentityKey, peer_id, rng: random.Random):
    """Responder flow plus the extra element g_peer^y under the same y."""
    y, msg = initiate(params, own, rng)
    extra = fixed_base_exp(params.group, hash_to_group(params.group, peer_id), y)
    return y, msg, extra


def pfs_verify_extra(
    params: SystemParams,
    own: IdentityKey,
    peer_id,
    peer_msg: FlowMessage,
    extra: GElem,
) -> bool:
    """Initiator-side check that the extra element reuses the flow's y.

    e(extra, g_peer) = e(g_own^y, g_peer) must equal e(R_peer, g_own).
    Each received point is checked for the curve and the identity, then
    is the left argument of its pairing, which is its subgroup check (see
    bilinear._checked_pairing).  Faults are reported in the order the
    checks run: R_peer's curve, then identity; R_peer's subgroup; extra's
    curve, then identity; the peer identity; extra's subgroup.  So R_peer
    is checked in full before extra is looked at.
    """
    group = params.group
    _check_flow_form(params, peer_msg.r)
    right = _checked_pairing(group, peer_msg.r, own.g_id)
    _require_in_subgroup(right is not None)
    _check_flow_form(params, extra)
    left = _checked_pairing(group, extra, hash_to_group(group, peer_id))
    _require_in_subgroup(left is not None)
    return left == right


def pfs_session_key(params: SystemParams, sk: SharedSecret, dh: GElem) -> SessionKey:
    """Hash the ephemeral Diffie-Hellman point into the key.

    dh = g_initiator^(x*y), computed as extra^x by the initiator and as
    R_initiator^y by the responder.  An attacker who later learns alpha
    can rebuild sk from the transcript but not dh.
    """
    if dh.is_identity():
        raise InvalidFlowError("degenerate Diffie-Hellman point")
    material = (
        TAG_PFS_KDF
        + encode_point(params.group, dh)
        + encode_gt(params.group, sk.value)
    )
    return SessionKey(key=hashlib.sha256(material).digest())


# ---------------------------------------------------------------------------
# what master-key compromise yields
# ---------------------------------------------------------------------------


def master_compromise_compute(
    params: SystemParams,
    alpha: int,
    id_a,
    id_b,
    r_a: FlowMessage,
    r_b: FlowMessage,
) -> SharedSecret:
    """Recover the base protocol's GT secret from a transcript and alpha.

    e(g_A^{s_A} * R_A, g_B^{s_B} * R_B)^alpha needs no ephemeral and no
    identity key, which is exactly why the base protocol has no forward
    secrecy against authority compromise.
    """
    group = params.group
    if not 1 <= alpha < group.q:
        raise InvalidEphemeralError("alpha out of range")
    validate_flow_point(params, r_a.r)
    validate_flow_point(params, r_b.r)
    blended_a = _blend(params, hash_to_group(group, id_a), r_a.r, r_b.r)
    blended_b = _blend(params, hash_to_group(group, id_b), r_b.r, r_a.r)
    return SharedSecret(value=gt_exp(pairing(group, blended_a, blended_b), alpha))


# ---------------------------------------------------------------------------
# flow wire format
# ---------------------------------------------------------------------------


def encode_flow(
    params: SystemParams,
    role: Role,
    sender_id,
    msg: FlowMessage,
    extra: GElem | None = None,
) -> bytes:
    """version || role || id length || id || point || presence || [extra]."""
    out = bytes([FLOW_VERSION, ROLE_BYTES[role]]) + sized(identity_bytes(sender_id))
    out += encode_point(params.group, msg.r)
    return out + (b"\x00" if extra is None else b"\x01" + encode_point(params.group, extra))


def decode_flow(params: SystemParams, data: bytes):
    """Parse a wire flow into (role, sender_id, FlowMessage, extra | None)."""
    try:
        if data[0] != FLOW_VERSION:
            raise InvalidFlowError(f"unsupported flow version {data[0]}")
        role = {v: k for k, v in ROLE_BYTES.items()}[data[1]]
        ident, offset = take_sized(data, 2)
        if not ident:
            raise InvalidFlowError("empty identity")
        point, offset = take_point(params.group, data, offset)
        presence = data[offset]
        offset += 1
        extra = None
        if presence == 0x01:
            extra, offset = take_point(params.group, data, offset)
        elif presence != 0x00:
            raise InvalidFlowError("bad presence byte")
        if offset != len(data):
            raise InvalidFlowError("trailing bytes in flow")
        return role, ident, FlowMessage(r=point), extra
    except (IndexError, KeyError, MalformedElementError) as exc:
        raise InvalidFlowError(f"malformed flow: {exc}") from exc
