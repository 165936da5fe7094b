"""Session-oracle world tests: query semantics, matching, freshness."""

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import idak
from idak.bilinear import INFINITY, GElem, GTElem, decode_point, encode_point
from idak.errors import (
    DegenerateExponentError,
    IdakError,
    InvalidFlowError,
    MalformedElementError,
    NoKeyError,
    NoSuchPrincipalError,
    NotTestableError,
    ScenarioError,
    StaleOracleError,
    TestRefusedError,
)
from idak.protocol import (
    STRATEGIES, FlowMessage, IdentityKey, PiVariant, SharedSecret, derive, initiate,
    initiator_first, seeded_rng, session_key, setup, validate_flow_point,
)
from idak.sessions import SessionOracle, World, make_world, run_scenario

import reference as ref

SCENARIO_DIR = Path(idak.__file__).parent / "scenarios"
README = Path(__file__).resolve().parents[1] / "README.md"


def make_basic_world(seed="w", mode="br", k_bits=16):
    return make_world(k_bits=k_bits, seed=seed, mode=mode, principals=["alice", "bob"])


def honest_pair(world, init_id="alice", resp_id="bob"):
    a = world.new_oracle(init_id, resp_id)
    b = world.new_oracle(resp_id, init_id)
    first = world.send(a, None)
    second = world.send(b, first)
    world.send(a, second)
    return a, b


# ---------------------------------------------------------------------------
# send / reveal semantics
# ---------------------------------------------------------------------------


def test_honest_exchange():
    world = make_basic_world()
    a, b = honest_pair(world)
    assert a.completed and b.completed
    assert a.role == "initiator" and b.role == "responder"
    assert a.key == b.key and a.key is not None
    assert world.matching(a, b) and world.matching(b, a)


def test_initiator_emits_then_absorbs():
    # completed is read off completed_at, and the conversation off binding,
    # neither stored beside them
    fields = {f.name for f in dataclasses.fields(SessionOracle)}
    assert "completed" not in fields and "transcript" not in fields
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    assert flow is not None and not a.completed and a.completed_at is None
    b = world.new_oracle("bob", "alice")
    reply = world.send(b, flow)
    assert b.completed and b.completed_at == world.clock
    assert world.send(a, reply) is None
    assert a.completed and a.completed_at == world.clock > b.completed_at


def test_a_world_is_given_its_rng():
    params, alpha = setup(16, "w")
    with pytest.raises(TypeError):
        World(params, alpha)
    with pytest.raises(TypeError):
        World(params, alpha, "br", random.Random(0))  # rng is keyword-only


def test_replayed_first_flow_gives_distinct_keys():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    world.send(b1, flow)
    world.send(b2, flow)
    assert b1.completed and b2.completed
    assert b1.key != b2.key  # fresh responder ephemerals


def test_world_assigns_session_indices():
    world = make_basic_world()
    o1 = world.new_oracle("alice", "bob")
    o2 = world.new_oracle("alice", "bob")
    o3 = world.new_oracle("bob", "alice")
    assert (o1.index, o2.index, o3.index) == (1, 2, 1)


def test_stale_oracle_rejections():
    world = make_basic_world()
    a, b = honest_pair(world)
    flow = a.own_msg
    with pytest.raises(StaleOracleError):
        world.send(b, flow)  # second activation of a completed responder
    with pytest.raises(StaleOracleError):
        world.send(a, flow)
    c = world.new_oracle("alice", "bob")
    world.send(c, None)
    with pytest.raises(StaleOracleError):
        world.send(c, None)  # re-activating a waiting initiator


REJECTED_FLOWS = {
    "malformed": lambda group: b"\xde\xad\xbe\xef",
    "out-of-subgroup": lambda group: encode_point(group, ref.outside_point(group)),
    "identity": lambda group: b"\x00",
}


@pytest.mark.parametrize("flow", list(REJECTED_FLOWS))
@pytest.mark.parametrize("role", ["responder", "initiator"])
def test_rejected_flow_aborts_oracle_and_draws_nothing(role, flow):
    world = make_basic_world()
    if role == "responder":
        oracle = world.new_oracle("bob", "alice")
    else:
        oracle = world.new_oracle("alice", "bob")
        world.send(oracle, None)
    before = (oracle.role, oracle.ephemeral, oracle.own_msg)
    rng_state = world.rng.getstate()
    with pytest.raises(InvalidFlowError):
        world.send(oracle, REJECTED_FLOWS[flow](world.params.group))
    # the flow is checked before a responder draws y: a rejection consumes
    # no rng state, and a rejected responder never takes a role
    assert world.rng.getstate() == rng_state
    assert (oracle.role, oracle.ephemeral, oracle.own_msg) == before
    assert oracle.aborted and not oracle.completed and oracle.completed_at is None
    with pytest.raises(StaleOracleError):
        world.send(oracle, b"\x00")
    with pytest.raises(NoKeyError):
        world.reveal(oracle)


def test_reveal_semantics():
    world = make_basic_world()
    a, b = honest_pair(world)
    key = world.reveal(a)
    assert key == a.key and a.revealed
    incomplete = world.new_oracle("alice", "bob")
    world.send(incomplete, None)
    with pytest.raises(NoKeyError):
        world.reveal(incomplete)


# ---------------------------------------------------------------------------
# corrupt / extract
# ---------------------------------------------------------------------------


def test_corrupt_then_extract_identical():
    world = make_basic_world()
    corrupted = world.corrupt("alice")
    extracted = world.extract_query("alice")
    assert corrupted == extracted == world.principals[b"alice"].d_id


def test_a_principal_is_its_identity_bytes():
    world = make_world(k_bits=16, seed="x")
    a = world.new_oracle(b"alice", "bob")
    b = world.new_oracle("bob", "alice")
    world.send(a, world.send(b, world.send(a, None)))
    assert len(world.principals) == 2
    assert a.owner == b.peer == b"alice" and a.name() == "(alice,bob)#1"
    assert world.matching(a, b) and world.matching(b, a) and a.key == b.key
    assert world.new_oracle("alice", b"bob").index == 2
    world.corrupt("alice")
    assert not world.fresh(a) and not world.fresh(b)
    assert world.extract_query(bytearray(b"bob")) == world.principals[b"bob"].d_id
    assert world.extracted == {b"bob"}
    # a name that is not UTF-8 text is shown backslash-escaped
    assert world.new_oracle(b"\xffeve", "bob").name() == "(\\xffeve,bob)#1"


def test_corrupt_unknown_principal():
    world = make_basic_world()
    with pytest.raises(NoSuchPrincipalError):
        world.corrupt("mallory")


def test_extract_new_identity_consistent():
    world = make_basic_world()
    d1 = world.extract_query("charlie")
    d2 = world.extract_query("charlie")
    assert d1 == d2
    assert b"charlie" in world.extracted


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_matching_requires_completion():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    world.send(a, None)
    b = world.new_oracle("bob", "alice")
    assert not world.matching(a, b)


def test_matching_rejects_same_role():
    world = make_basic_world()
    a1, b1 = honest_pair(world)
    a2, b2 = honest_pair(world)
    assert not world.matching(a1, a2)
    assert not world.matching(b1, b2)


def test_matching_rejects_substituted_flow():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    reply1 = world.send(b1, flow)
    reply2 = world.send(b2, flow)
    world.send(a, reply2)
    # a shares a transcript with b2 only
    assert world.matching(a, b2)
    assert not world.matching(a, b1)
    assert a.key == b2.key and a.key != b1.key


def test_matching_rejects_identity_mismatch():
    world = make_basic_world()
    world.extract_query("eve")
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    uks = world.new_oracle("bob", "eve")
    reply = world.send(uks, flow)
    world.send(a, reply)
    assert a.completed and uks.completed
    assert not world.matching(a, uks)
    assert world.reveal(a) != world.reveal(uks)


# ---------------------------------------------------------------------------
# freshness and test
# ---------------------------------------------------------------------------


def test_fresh_requires_completion():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    world.send(a, None)
    with pytest.raises(NotTestableError):
        world.fresh(a)


def test_fresh_gate_extract():
    world = make_basic_world()
    a, b = honest_pair(world)
    assert world.fresh(a)
    world.extract_query("bob")
    assert not world.fresh(a) and not world.fresh(b)
    with pytest.raises(TestRefusedError):
        world.test(a, 1)


def test_fresh_gate_corrupt_br():
    world = make_basic_world(mode="br")
    a, b = honest_pair(world)
    world.corrupt("alice")  # after completion, still poisons in br mode
    assert not world.fresh(a) and not world.fresh(b)


def test_fresh_gate_reveal_self_and_partner():
    world = make_basic_world()
    a, b = honest_pair(world)
    world.reveal(a)
    assert not world.fresh(a)
    assert not world.fresh(b)  # matching oracle revealed


def test_reveal_of_non_matching_oracle_keeps_fresh():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    reply1 = world.send(b1, flow)
    reply2 = world.send(b2, flow)
    world.send(a, reply2)
    world.reveal(b1)  # not matching a
    assert world.fresh(a)


def test_wpfs_corrupt_after_completion_keeps_fresh():
    world = make_basic_world(mode="wpfsbr")
    a, b = honest_pair(world)
    world.corrupt("alice")
    world.corrupt("bob")
    assert world.fresh(a) and world.fresh(b)
    assert world.test(a, 1) == a.key


def test_wpfs_corrupt_before_completion_poisons():
    world = make_basic_world(mode="wpfsbr")
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    world.corrupt("alice")
    b = world.new_oracle("bob", "alice")
    reply = world.send(b, flow)
    world.send(a, reply)
    assert not world.fresh(a) and not world.fresh(b)


def _impersonate_then_corrupt(world, victim, claimed, as_initiator, rng):
    """The generic attack on two-message protocols: the adversary sends its
    own flow g_claimed^x to a new oracle of victim as claimed's, corrupts
    claimed after the oracle completes, and derives its key through the
    public API, with no discrete log.  The oracle, and the key."""
    params = world.params
    # a key with claimed's public point and no secret yet
    claimed_key = IdentityKey(claimed.encode(), world.principals[claimed.encode()].g_id, None)
    x, forged = initiate(params, claimed_key, rng)
    oracle = world.new_oracle(victim, claimed)
    if as_initiator:
        own = world.send(oracle, None)  # the victim opens, the adversary answers
        world.send(oracle, forged)
    else:
        own = world.send(oracle, forged)
    role = "responder" if as_initiator else "initiator"
    claimed_key = dataclasses.replace(claimed_key, d_id=world.corrupt(claimed))
    shared, _ = derive(params, claimed_key, x, forged, victim, own, role)
    binding = initiator_first(claimed, forged, victim, own, role)
    return oracle, session_key(params, shared, *binding)


@pytest.mark.parametrize("as_initiator", [False, True], ids=["responder", "initiator"])
def test_wpfs_corruption_after_an_active_attack_poisons(as_initiator):
    # weak PFS lifts the corruption ban after completion only where the
    # adversary was passive toward the oracle: here it sent the flow the
    # oracle received, so corrupting the claimed sender gives it the key,
    # and the test query must refuse
    for seed in range(8):
        world = make_basic_world(seed=f"active-{seed}", mode="wpfsbr")
        oracle, key = _impersonate_then_corrupt(
            world, "bob", "alice", as_initiator, random.Random(seed))
        assert oracle.completed and key == oracle.key, seed
        assert not world.fresh(oracle), seed
        with pytest.raises(TestRefusedError):
            world.test(oracle, seed % 2)


def test_wpfs_corruption_after_a_rerouted_flow_poisons():
    # the flow came from an oracle of the peer, but addressed to another
    # principal, so the adversary was not passive toward the receiver
    world = make_world(k_bits=16, seed="reroute", mode="wpfsbr",
                       principals=["alice", "bob", "carol"])
    flow = world.send(world.new_oracle("alice", "carol"), None)
    receiver = world.new_oracle("bob", "alice")
    world.send(receiver, flow)
    world.corrupt("alice")
    assert not world.fresh(receiver)


def test_wpfs_corruption_after_a_flow_an_aborted_responder_drew_poisons():
    # at k = 4 bob's responder to alice's first flow aborts, as its exponent
    # vanishes, and keeps nothing it drew; the point it drew and never sent,
    # delivered to a new initiator of alice, is the adversary's flow
    world = make_world(k_bits=4, seed="s66", mode="wpfsbr")
    first = world.send(world.new_oracle("alice", "bob"), None)
    responder = world.new_oracle("bob", "alice")
    before = world.rng.getstate()
    with pytest.raises(DegenerateExponentError):
        world.send(responder, first)
    initiator = world.new_oracle("alice", "bob")
    world.send(initiator, None)
    world.send(initiator, FlowMessage(reference_drawn(world, before, b"bob")))
    assert initiator.completed
    world.corrupt("bob")
    assert not world.fresh(initiator)
    assert responder.ephemeral is None and responder.own_msg is None


def test_freshness_is_monotone():
    # once lost, freshness never comes back under further queries
    world = make_basic_world()
    a, b = honest_pair(world)
    world.extract_query("alice")
    assert not world.fresh(a)
    honest_pair(world)
    world.corrupt("bob")
    world.reveal(b)
    assert not world.fresh(a)


def test_test_query_coins():
    world = make_basic_world()
    a, _ = honest_pair(world)
    real = world.test(a, 1)
    assert real == a.key
    world.rng.seed(1)
    fake = world.test(a, 0)
    assert fake != a.key and len(fake.key) == 32
    # deterministic under a seeded rng
    world.rng.seed(1)
    assert world.test(a, 0) == fake
    with pytest.raises(ValueError):
        world.test(a, 2)


def test_test_does_not_reveal():
    world = make_basic_world()
    a, _ = honest_pair(world)
    world.test(a, 1)
    world.test(a, 0)
    assert world.fresh(a)


def test_world_rejects_unknown_mode():
    with pytest.raises(ValueError):
        make_world(seed="x", mode="strong")


# reference partnering: BR matching as a comparison of ordered conversations,
# the test oracle for World's matching and fresh by binding.  The
# conversations come from the test's own record of every send, never from
# the World's state.


def _point(world, flow):
    """The point of a flow sent as a message or as bytes; None for none."""
    if isinstance(flow, bytes):
        return ref.decode_point(world.params.group, flow)
    return None if flow is None else flow.r


def record_sends(world):
    """Wrap world.send so that each send that returns is recorded, per
    oracle, as the pair (point delivered, point returned), None where no
    flow went; the record, keyed by id(oracle), is returned."""
    sends, send = {}, world.send

    def recorded(oracle, flow):
        reply = send(oracle, flow)
        sends.setdefault(id(oracle), []).append((_point(world, flow), _point(world, reply)))
        return reply

    world.send = recorded
    return sends


def reference_sent(sends, oracle):
    """The role the oracle took and the point it sent, (None, None) before
    its first send returned, read off the record alone: an initiator's
    first send delivers None and returns its flow, a responder's delivers
    a flow and returns its own."""
    if id(oracle) not in sends:
        return None, None
    delivered, sent = sends[id(oracle)][0]
    return "initiator" if delivered is None else "responder", sent


def reference_drawn(world, state, owner):
    """The flow point g_owner^y that an oracle of owner draws from a rng in
    state, recomputed by the reference."""
    draw = random.Random()
    draw.setstate(state)
    group = world.params.group
    return ref.multiply(group, ref.hash_to_group(group, owner), ref.ephemeral(group, draw))


def reference_canonical(sends, oracle):
    """The oracle's conversation as the points it took and gave, in order.
    An initiator gives x on activation and takes y; a responder takes x
    and gives y: both read (initiator flow, responder flow)."""
    return tuple(point for pair in sends.get(id(oracle), ()) for point in pair
                 if point is not None)


def reference_matching(sends, first, second):
    if not (first.completed and second.completed):
        return False
    if first.role == second.role:
        return False
    if first.owner != second.peer or first.peer != second.owner:
        return False
    return reference_canonical(sends, first) == reference_canonical(sends, second)


def reference_passive(world, sends, oracle):
    """Whether some oracle of the peer, addressed to the owner in the other
    role, sent the flow that oracle received."""
    received = next(point for point, _ in sends[id(oracle)] if point is not None)
    role, _ = reference_sent(sends, oracle)
    return any(
        other.owner == oracle.peer and other.peer == oracle.owner
        and sent == received and other_role != role
        for other in world.oracles for other_role, sent in [reference_sent(sends, other)]
    )


def reference_fresh(world, sends, oracle):
    for identity in (oracle.owner, oracle.peer):
        if identity in world.extracted:
            return False
        when = world.corrupted_at.get(identity)
        if when is not None and (world.mode == "br" or when < oracle.completed_at
                                 or not reference_passive(world, sends, oracle)):
            return False
    if oracle.revealed:
        return False
    return not any(
        other is not oracle and other.revealed and reference_matching(sends, oracle, other)
        for other in world.oracles
    )


def reference_key(world, oracle, r_a, r_b):
    """The session key that the reference IDAK gives oracle for the flows
    R_A and R_B, or None where the exponent of its secret vanishes."""
    ids = (oracle.owner, oracle.peer)
    id_a, id_b = ids if oracle.role == "initiator" else ids[::-1]
    return ref.flow_session_key(world.params, world.alpha, id_a, id_b, r_a, r_b)


# ---------------------------------------------------------------------------
# adversary schedules: a World that trusts the flows it emitted against one
# that checks every flow in full, and both against the references
# ---------------------------------------------------------------------------


class _ChecksEveryFlow(World):
    """A World that decodes every received flow and runs validate_flow_point
    on it, the points its own oracles sent included; fresh still reads the
    _sent that its oracles fill.  emitted_checks counts the checks of
    sent points."""

    emitted_checks = 0

    def _coerce_flow(self, flow):
        if isinstance(flow, (bytes, bytearray)):
            try:
                flow = FlowMessage(decode_point(self.params.group, bytes(flow)))
            except MalformedElementError as exc:
                raise InvalidFlowError(str(exc)) from exc
        self.emitted_checks += flow.r in self._sent
        validate_flow_point(self.params, flow.r)
        return flow


PEOPLE = ("alice", "bob", "carol")
PICK = st.integers(0, 15)
# a new responder of (owner, peer) where the pick is None, else any oracle
TARGET = st.tuples(st.one_of(st.none(), PICK), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE))
# every kind of flow that no oracle drew (at k = 16): each hostile kind, and
# a valid subgroup point
FOREIGN_KINDS = ("off-curve", "identity", "order two", "outside the subgroup", "malformed",
                 "valid")
STEPS = st.one_of(
    st.tuples(st.just("relay"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    st.tuples(st.just("open"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    # an emitted flow, as bytes or as a message: honest relays and reroutes alike
    st.tuples(st.just("deliver"), TARGET, st.booleans(), PICK),
    st.tuples(st.just("foreign"), TARGET, st.booleans(), st.sampled_from(FOREIGN_KINDS)),
    st.tuples(st.just("reveal"), PICK),
    st.tuples(st.just("test"), PICK, st.sampled_from([0, 1])),
    st.tuples(st.just("corrupt"), st.sampled_from(PEOPLE)),
    st.tuples(st.just("extract"), st.sampled_from(PEOPLE)),
)


def _foreign_flow(params, kind, as_bytes):
    """A flow of the kind, as bytes or as a message; malformed bytes have no
    message form."""
    group = params.group
    if kind == "malformed":
        return b"\xde\xad\xbe\xef"
    point = {"off-curve": GElem(1, 1), "identity": INFINITY, "order two": GElem(0, 0),
             "outside the subgroup": ref.outside_point(group),
             "valid": ref.multiply(group, params.g, 12345)}[kind]
    return encode_point(group, point) if as_bytes else FlowMessage(point)


def _send(world, record, oracle, flow):
    """world.send(oracle, flow), where a DegenerateExponentError must come
    from flows whose exponent vanishes by the reference.  record is the
    pair (sends, unsent) of the test's own record: the flow of a responder
    that aborts so, which it drew and never sent, goes on unsent."""
    sends, unsent = record
    before = world.rng.getstate()
    try:
        return world.send(oracle, flow)
    except DegenerateExponentError:
        role, own = reference_sent(sends, oracle)
        if role is None:
            # a responder: the reference draws its flow as the World drew it
            own = reference_drawn(world, before, oracle.owner)
            unsent.append(own)
        flows = (own, _point(world, flow))
        assert reference_key(world, oracle, *(flows if role else flows[::-1])) is None
        raise


def _apply(world, record, step):
    """Run one step on world, whose record is (sends, unsent); its result,
    or None where it has no target."""
    oracles, kind = world.oracles, step[0]
    if kind in ("relay", "open"):
        initiator = world.new_oracle(step[1], step[2])
        if kind == "open":
            return world.send(initiator, None)
        responder = world.new_oracle(step[2], step[1])
        first = world.send(initiator, None)
        _send(world, record, initiator, _send(world, record, responder, first))
        return initiator.key
    if kind in ("deliver", "foreign"):
        (pick, owner, peer), as_bytes, which = step[1:]
        # each flow a send returned, and each that an aborted responder drew
        sends, unsent = record
        emitted = [sent for other in oracles for _, sent in [reference_sent(sends, other)]
                   if sent is not None] + unsent
        if (kind == "deliver" and not emitted) or (pick is not None and not oracles):
            return None
        oracle = world.new_oracle(owner, peer) if pick is None else oracles[pick % len(oracles)]
        if kind == "deliver":
            point = emitted[which % len(emitted)]
            flow = encode_point(world.params.group, point) if as_bytes else FlowMessage(point)
        else:
            flow = _foreign_flow(world.params, which, as_bytes)
        stale = oracle.completed or oracle.aborted
        hostile = kind == "foreign" and which != "valid" and not stale
        rng_state = world.rng.getstate()
        try:
            result = _send(world, record, oracle, flow)
        except IdakError as exc:
            # a hostile flow aborts its oracle with no key and draws nothing
            assert isinstance(exc, InvalidFlowError) == hostile, exc
            if hostile:
                assert oracle.aborted and oracle.key is None and not oracle.completed
                assert world.rng.getstate() == rng_state
            raise
        assert not hostile, which
        return result
    if kind == "corrupt":
        return world.corrupt(step[1])
    if kind == "extract":
        return world.extract_query(step[1])
    completed = [oracle for oracle in oracles if oracle.completed]
    if not completed:
        return None
    oracle = completed[step[1] % len(completed)]
    if kind == "reveal":
        return world.reveal(oracle)
    before = world.rng.getstate()
    key = world.test(oracle, step[2])
    if step[2] == 0:
        # the key of a uniform GT element drawn as e(g, g)^e, e from the rng
        draw = random.Random()
        draw.setstate(before)
        group = world.params.group
        base = ref.pairing(group, world.params.g, world.params.g)
        element = GTElem(*ref.fp2_pow(group.p, base.a, base.b, draw.randrange(group.q)), group.p)
        assert key == ref.session_key(world.params, SharedSecret(element), *oracle.binding)
    else:
        assert key == oracle.key
    return key


def _outcome(world, record, step):
    try:
        result = ("ok", _apply(world, record, step))
    except IdakError as exc:
        result = ("error", type(exc))
    states = [(o.role, o.completed, o.aborted, o.key) for o in world.oracles]
    fresh = [world.fresh(o) for o in world.oracles if o.completed]
    return result, world.rng.getstate(), states, fresh


def _lockstep(k_bits, seed, mode, pi_variant, steps):
    """Run steps on a World and on a _ChecksEveryFlow of the same group,
    master secret, mode and rng, asserting equal outcomes after each step
    and checking the World against the references; return the
    _ChecksEveryFlow."""
    params, alpha = setup(k_bits, seed, pi_variant)
    world, checker = (kind(params, alpha, mode, rng=seeded_rng("idak-world", seed))
                      for kind in (World, _ChecksEveryFlow))
    for person in PEOPLE:
        world.add_principal(person)
        checker.add_principal(person)
    sends, stale = record_sends(world), set()
    record, checks = (sends, []), (record_sends(checker), [])
    for step in steps:
        assert _outcome(world, record, step) == _outcome(checker, checks, step), step
        for oracle in world.oracles:
            if oracle.completed:
                fresh = world.fresh(oracle)
                assert fresh == reference_fresh(world, sends, oracle), step
                # freshness, once lost, never comes back
                assert not (fresh and id(oracle) in stale), step
                if not fresh:
                    stale.add(id(oracle))
                assert oracle.key == reference_key(
                    world, oracle, *reference_canonical(sends, oracle)), step
    for first in world.oracles:
        for second in world.oracles:
            assert world.matching(first, second) == reference_matching(sends, first, second)
    return checker


# the example count comes from the hypothesis profile.  A fault here often
# fails several assertions: shrinking each failure apart, then explaining
# it, made one ledger mutant's run 35 s where it now takes about 4 s
@settings(deadline=None, report_multiple_bugs=False,
          phases=[phase for phase in Phase if phase is not Phase.explain])
@given(k_bits=st.sampled_from([16, 4]), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["br", "wpfsbr"]), pi_variant=st.sampled_from(PiVariant),
       steps=st.lists(STEPS, max_size=24))
# a revealed responder leaves its matching initiator not fresh, on every run
@example(k_bits=16, seed="partners", mode="br", pi_variant=PiVariant.HASH_HALF,
         steps=[("relay", "alice", "bob"), ("reveal", 1)])
# at k = 4 (q = 13) oracles often draw one point: six relays draw a point
# twice, and a corruption after them keeps fresh only the oracles whose
# peer's oracle sent what they received
@example(k_bits=4, seed="partners", mode="wpfsbr", pi_variant=PiVariant.HASH_HALF,
         steps=[("relay", "alice", "bob")] * 6 + [("corrupt", "alice")])
# at k = 4 bob's responder aborts on alice's flow, and the point it drew
# completes alice's second initiator, which bob's corruption poisons: no
# oracle of bob sent that point
@example(k_bits=4, seed="s66", mode="wpfsbr", pi_variant=PiVariant.HASH_HALF,
         steps=[("open", "alice", "bob"), ("deliver", (None, "bob", "alice"), False, 0),
                ("open", "alice", "bob"), ("deliver", (2, "alice", "bob"), False, 2),
                ("corrupt", "bob")])
def test_a_world_schedule_matches_the_references(k_bits, seed, mode, pi_variant, steps):
    _lockstep(k_bits, seed, mode, pi_variant, steps)


# four narrower schedules of the same grammar, each run through the same
# lockstep and references: partnering without hostile flows, flows without
# corruption, one flow of each kind to a waiting oracle, and honest relays
# under every pi


def _only(*kinds):
    """The steps of STEPS of the given kinds."""
    return STEPS.filter(lambda step: step[0] in kinds)


def _assert_every_strategy(world):
    """Each completed oracle's key is the key that the public derive gives,
    by every strategy, for its ephemeral and the flows of its binding."""
    for oracle in world.oracles:
        if oracle.completed:
            peer_msg = oracle.binding[3 if oracle.role == "initiator" else 2]
            for strategy in STRATEGIES:
                shared, _ = derive(world.params, world.principals[oracle.owner], oracle.ephemeral,
                                   oracle.own_msg, oracle.peer, peer_msg, oracle.role, strategy)
                assert session_key(world.params, shared, *oracle.binding) == oracle.key, \
                    strategy.label()


@settings(max_examples=40, deadline=None)
@given(k_bits=st.sampled_from([16, 4]), mode=st.sampled_from(["br", "wpfsbr"]),
       steps=st.lists(_only("relay", "open", "deliver", "reveal", "corrupt", "extract"),
                      max_size=14))
def test_binding_partners_match_the_transcript_reference(k_bits, mode, steps):
    _lockstep(k_bits, "partners", mode, PiVariant.HASH_HALF, steps)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(_only("relay", "open", "deliver", "foreign", "reveal", "test"),
                      max_size=24))
def test_a_world_that_trusts_its_emitted_flows_matches_one_that_checks_every_flow(seed, steps):
    _lockstep(16, seed, "br", PiVariant.HASH_HALF, steps)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["br", "wpfsbr"]),
       as_initiator=st.booleans(), kind=st.sampled_from(FOREIGN_KINDS + ("emitted",)),
       as_bytes=st.booleans())
def test_a_world_keys_only_points_of_the_subgroup(seed, mode, as_initiator, kind, as_bytes):
    # bob's initiator emits a flow; alice's waiting initiator (oracle 1) or
    # a new responder of hers receives a foreign flow or bob's
    target = (1 if as_initiator else None, "alice", "bob")
    last = (("deliver", target, as_bytes, 0) if kind == "emitted"
            else ("foreign", target, as_bytes, kind))
    steps = [("open", "bob", "alice")] + [("open", "alice", "bob")] * as_initiator + [last]
    _assert_every_strategy(_lockstep(16, seed, mode, PiVariant.HASH_HALF, steps))


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pi_variant=st.sampled_from(PiVariant),
       alice_first=st.lists(st.booleans(), min_size=1, max_size=3))
def test_a_world_relay_key_is_the_key_of_every_strategy(seed, pi_variant, alice_first):
    steps = [("relay", *(("alice", "bob") if first else ("bob", "alice")))
             for first in alice_first]
    _assert_every_strategy(_lockstep(16, seed, "br", pi_variant, steps))


def test_the_reference_world_checks_the_flows_its_oracles_drew():
    # two relays deliver two drawn flows each, and a reroute one more
    steps = [("relay", "alice", "bob"), ("relay", "bob", "carol"),
             ("deliver", (None, "carol", "alice"), True, 0)]
    checker = _lockstep(16, "differential", "br", PiVariant.HASH_HALF, steps)
    assert checker.emitted_checks == 5


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def test_readme_scenario_example_passes():
    text = README.read_text()
    block = text[text.index('```\n{"config"') + 4 :]
    lines = block[: block.index("```")].splitlines()
    assert any(line.startswith('{"assert"') for line in lines)
    report = run_scenario(lines)
    assert report["ok"], report["failures"]


@pytest.mark.parametrize(
    "name",
    [
        "honest_run.jsonl",
        "rerouted_responder.jsonl",
        "freshness_gates.jsonl",
        "wpfs_corrupt_after.jsonl",
        "br_corrupt_after.jsonl",
        "uks_rejected.jsonl",
    ],
)
def test_bundled_scenarios(name):
    lines = (SCENARIO_DIR / name).read_text().splitlines()
    report = run_scenario(lines)
    assert report["ok"], report["failures"]


def test_scenario_replay_is_byte_identical():
    lines = (SCENARIO_DIR / "honest_run.jsonl").read_text().splitlines()
    first = json.dumps(run_scenario(lines), sort_keys=True)
    second = json.dumps(run_scenario(lines), sort_keys=True)
    assert first == second


def test_scenario_collects_failed_expectations():
    lines = [
        '{"config": {"k_bits": 16, "seed": "f"}}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null, "expect_error": "no-key"}',
        '{"assert": "completed", "oracle": "A", "expect": true}',
    ]
    report = run_scenario(lines)
    assert not report["ok"]
    assert len(report["failures"]) == 2


def test_scenario_rejects_bad_files():
    for script in [
        "not json",
        '{"q": "reveal", "oracle": "nope"}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "@B.out"}',
        '{"note": "neither query nor assertion"}',
        "5",
        '["q"]',
        '{"config": 5}',
        '{"config": {"k_bits": 99999}}',
        '{"config": {"k_bits": "16"}}',
        '{"config": {"mode": "zz"}}',
        '{"config": {"pi": "zz"}}',
        '{"config": {"principals": ["alice", 5]}}',
        '{"q": "send"}',
        '{"q": "send", "oracle": "A", "i": ["x"], "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": 5}',
        '{"q": "corrupt", "i": null}',
        '{"q": "corrupt", "i": ""}',
        # an oracle A exists, so only the coin can be at fault
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "test", "oracle": "A", "coin": true}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "test", "oracle": "A", "coin": 2}',
        '{"q": "send", "oracle": "A", "i": "", "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "", "x": null}',
        '{"q": "extract", "id": ""}',
        # i and j name an oracle only on the send that creates it
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "A", "i": "mallory", "j": "carol", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "A", "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"config": {"k_bits": 16}}',
        # no query has made the oracle an assertion-only prefix names
        '{"assert": "completed", "oracle": "A"}\n{"config": {"k_bits": 16}}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "B", "i": "b", "j": "a", "x": "@A.in"}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "zz"}',
        '{"assert": "fresh"}',
        '{"assert": "completed", "oracle": "A", "expect": "yes"}',
        "[" * 10**5,
    ]:
        with pytest.raises(ScenarioError):
            run_scenario(script.split("\n"))


SEND_A = '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}'


# each ScenarioError message once: the lines that set it up, the faulty
# line, and its message without the line prefix
@pytest.mark.parametrize("setup, faulty, message", [
    ([], "not json", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
    ([], "5", "not a JSON object"),
    ([SEND_A], '{"config": {"k_bits": 16}}', "config after queries"),
    ([], '{"note": 1}', "neither query nor assertion"),
    (['{"config": {"mode": "zz"}}'], '{"q": "extract", "id": "a"}',
     "bad config: mode must be one of ('br', 'wpfsbr'), got 'zz'"),
    ([], '{"q": "send"}', "missing field 'oracle'"),
    ([], '{"assert": "completed", "oracle": "A", "expect": "yes"}',
     "field 'expect' has the wrong JSON type"),
    ([], '{"q": "corrupt", "i": ""}', "field 'i' names nobody"),
    ([], '{"config": 5}', "config is not a JSON object"),
    ([], '{"config": {"principals": ["alice", 5]}}', "principals must be strings"),
    ([], '{"q": "reveal", "oracle": "nope"}', "unknown oracle label 'nope'"),
    ([SEND_A], '{"q": "send", "oracle": "B", "i": "b", "j": "a", "x": "@A.in"}',
     "unsupported back-reference '@A.in'"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "@B.out"}',
     "back-reference to 'B', which no query has defined"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "zz"}',
     "flow is neither reference nor hex: 'zz'"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": 5}', "bad flow value 5"),
    ([SEND_A], '{"q": "send", "oracle": "A", "j": "b", "x": null}',
     "i and j belong on 'A''s first send"),
    ([SEND_A], '{"q": "test", "oracle": "A", "coin": 2}', "coin must be 0 or 1"),
    ([], '{"q": "fly"}', "unknown query 'fly'"),
    ([], '{"assert": "flies"}', "unknown assertion 'flies'"),
])
def test_every_scenario_error_names_its_line(setup, faulty, message):
    # a blank line and a comment count as lines too
    lines = ["", "# the faulty line is the last", *setup, faulty]
    with pytest.raises(ScenarioError) as raised:
        run_scenario(lines)
    assert str(raised.value) == f"line {len(lines)}: {message}"
    # a bad JSON line keeps its decode error at the end of the chain of causes
    cause = raised.value
    while cause.__cause__ is not None:
        cause = cause.__cause__
    assert isinstance(cause, json.JSONDecodeError) == message.startswith("bad JSON")


def test_a_file_of_config_lines_alone_reports_the_world_they_configure():
    lines = [
        "# no query and no assertion: the world is built at the end of the file",
        '{"config": {"k_bits": 12, "seed": "only-config"}}',
        "",
        '{"config": {"mode": "wpfsbr"}}',
    ]
    group = make_world(k_bits=12, seed="only-config").params.group
    assert group.q.bit_length() == 12
    assert run_scenario(lines) == {
        "failures": [], "log": [], "queries": 0, "assertions": 0,
        "mode": "wpfsbr", "params": group._asdict(), "ok": True,
    }
    # the caller's values still win over the config lines
    assert run_scenario(lines, mode="br")["mode"] == "br"


def test_the_world_is_built_at_the_first_assertion():
    # before the assertion reads its oracle, so a bad config is its error
    with pytest.raises(ScenarioError, match="bad config"):
        run_scenario(['{"config": {"mode": "zz"}}', '{"assert": "completed", "oracle": "A"}'])


def test_an_error_without_a_scenario_name_is_named_by_its_class():
    report = run_scenario(['{"q": "extract", "id": "\\udcff"}'])
    assert report["log"][0]["error"] == "InvalidIdentityError"
    assert report["failures"][0]["reason"].startswith("unexpected error InvalidIdentityError: ")


EXPECT_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "expect", "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "test", "oracle": "A1", "coin": 1},
    {"q": "send", "oracle": "A2", "i": "alice", "j": "bob", "x": None},
]


@pytest.mark.parametrize("assertion, ok", [
    ({"assert": "keys-equal", "a": "A1", "b": "B1"}, True),
    ({"assert": "keys-equal", "a": "A1", "b": "B1", "expect": False}, False),
    ({"assert": "keys-differ", "a": "A1", "b": "B1", "expect": False}, True),
    ({"assert": "test-real-key", "oracle": "A1", "expect": False}, False),
    ({"assert": "test-random-key", "oracle": "A1", "expect": False}, True),
    ({"assert": "matching", "a": "A1", "b": "B1", "expect": False}, False),
    ({"assert": "completed", "oracle": "A2", "expect": False}, True),
    # nothing to compare fails whatever expect says: B1 answered no test, A2 holds no key
    ({"assert": "test-real-key", "oracle": "B1", "expect": False}, False),
    ({"assert": "test-random-key", "oracle": "B1", "expect": False}, False),
    ({"assert": "keys-equal", "a": "A2", "b": "B1", "expect": False}, False),
    ({"assert": "keys-differ", "a": "A2", "b": "B1", "expect": False}, False),
    ({"assert": "fresh", "oracle": "A2", "expect": False}, False),
], ids=lambda value: json.dumps(value) if isinstance(value, dict) else str(value))
def test_every_assertion_is_compared_with_expect(assertion, ok):
    report = run_scenario([json.dumps(line) for line in [*EXPECT_SCRIPT, assertion]])
    assert [record["ok"] for record in report["log"]] == [True] * 5 + [ok]
    assert report["ok"] == ok


NO_FLOW_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "no-flow", "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "00",
     "expect_error": "invalid-flow"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "send", "oracle": "B2", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B2.out"},
    {"assert": "keys-equal", "a": "A1", "b": "B2"},
    {"assert": "keys-equal", "a": "A1", "b": "B1"},
    {"assert": "keys-differ", "a": "B1", "b": "A1"},
]


def test_back_reference_to_an_oracle_without_a_flow_fails_its_query():
    report = run_scenario([json.dumps(line) for line in NO_FLOW_SCRIPT])
    by_line = {record["line"]: record for record in report["log"]}
    assert by_line[4] == {"line": 4, "q": "send", "ok": False, "result": None, "error": "no-flow"}
    # the failed query was not sent, so A1 still completes with B2 on line 6
    assert by_line[6]["ok"] and by_line[7]["ok"]
    assert by_line[8]["error"] == by_line[9]["error"] == "no-key"
    assert [failure["line"] for failure in report["failures"]] == [4, 8, 9]
    assert "no-flow" in report["failures"][0]["reason"]


def test_no_flow_can_be_the_expected_error():
    script = json.loads(json.dumps(NO_FLOW_SCRIPT[:7]))
    script[3]["expect_error"] = "no-flow"
    assert run_scenario([json.dumps(line) for line in script])["ok"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)

FUZZED_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "fuzz", "mode": "br", "pi": "hash-half",
                "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "test", "oracle": "A1", "coin": 0},
    {"q": "reveal", "oracle": "B1", "expect_error": None},
    {"q": "corrupt", "i": "alice"},
    {"q": "extract", "id": "carol"},
    {"assert": "keys-equal", "a": "A1", "b": "B1"},
    {"assert": "fresh", "oracle": "A1", "expect": False},
    {"assert": "test-random-key", "oracle": "A1"},
]

# the JSON type each field must have
FIELD_TYPES = {
    "config": dict, "k_bits": int, "seed": (str, int), "mode": str, "pi": str, "principals": list,
    "q": str, "assert": str, "oracle": str, "i": str, "j": str, "id": str, "a": str,
    "b": str, "x": (str, type(None)), "coin": int, "expect_error": (str, type(None)),
    "expect": bool,
}


def _has_type(value, name):
    kind = FIELD_TYPES[name]
    if isinstance(value, bool) and kind is not bool:
        return False
    if name == "principals" and isinstance(value, list):
        return all(isinstance(item, str) for item in value)
    return isinstance(value, kind)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_scenario_fields_of_any_json_value_fail_only_as_scenario_errors(data, value):
    script = json.loads(json.dumps(FUZZED_SCRIPT))
    number = data.draw(st.integers(0, len(script) - 1))
    entry = script[number]
    if "config" in entry and data.draw(st.booleans()):
        entry = entry["config"]
    name = data.draw(st.sampled_from(sorted(entry)))
    entry[name] = value
    try:
        report = run_scenario([json.dumps(line) for line in script])
    except ScenarioError:
        return
    assert _has_type(value, name), f"{name}={value!r} ran as {report['failures']}"


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, number=st.integers(0, len(FUZZED_SCRIPT)))
def test_scenario_lines_of_any_json_value_fail_only_as_scenario_errors(value, number):
    lines = [json.dumps(line) for line in FUZZED_SCRIPT]
    lines.insert(number, json.dumps(value))
    try:
        run_scenario(lines)
    except ScenarioError:
        return
    assert isinstance(value, dict)


def test_scenario_mode_flag_defaults():
    lines = [
        '{"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": null}',
        '{"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"}',
        '{"q": "send", "oracle": "A1", "x": "@B1.out"}',
        '{"q": "corrupt", "i": "alice"}',
        '{"assert": "fresh", "oracle": "A1", "expect": false}',
    ]
    assert run_scenario(lines, seed="m", mode="br")["ok"]
    lines[-1] = '{"assert": "fresh", "oracle": "A1", "expect": true}'
    assert run_scenario(lines, seed="m", mode="wpfsbr")["ok"]
