"""Where points are checked for the curve.

A point is checked where it enters the library (decoders, key loaders,
the protocol's receivers, the session world and the self-reduction's
entry points) and by each public function that computes on it.  Encoders
and the private helpers behind those checks trust their points, so a
warm derive checks only the flows it receives, and a World checks a flow
once, where it enters, and never one it emitted.
"""

import random
from collections import Counter

import pytest

from idak import bilinear, keystore, protocol, selfreduction, sessions
from idak.bilinear import GElem, encode_point, in_subgroup, is_on_curve
from idak.errors import InvalidFlowError, KeystoreError, MalformedElementError
from idak.protocol import STRATEGIES, FlowMessage, IdentityKey, decode_flow, derive, encode_flow
from idak.selfreduction import CbdhInstance, MockCbdhOracle, solve_dlog, validate_instance
from idak.sessions import World

PARAMS, MSK = protocol.setup(16, "boundary")
GROUP = PARAMS.group
GEN = PARAMS.g
ALICE = protocol.extract(PARAMS, MSK, "alice")
BOB = protocol.extract(PARAMS, MSK, "bob")
_RNG = random.Random(11)
X, MSG_A = protocol.initiate(PARAMS, ALICE, _RNG)
_, MSG_B, EXTRA = protocol.pfs_respond(PARAMS, BOB, "alice", _RNG)
INSTANCE, _ = selfreduction.make_instance(GROUP, GEN, _RNG)

# 1^2 != 1^3 + 1 modulo any odd p
OFF = GElem(1, 1)


def _world_send(point):
    world = World(PARAMS, MSK, rng=random.Random(0))
    world.send(world.new_oracle("bob", "alice"), FlowMessage(point))


def _ask_oracle(instance):
    MockCbdhOracle(GROUP, GEN, 1.0, random.Random(0))(instance)


def _saved_and_loaded(path, save, load, *values):
    save(path, GROUP, *values)
    load(path, GROUP)


# (receiver or function, the call with the off-curve point pt, its error);
# path is a fresh file name for the key loaders
BOUNDARY = [
    ("decode_point", lambda pt, path: bilinear.decode_point(GROUP, encode_point(GROUP, pt)),
     MalformedElementError),
    ("take_point", lambda pt, path: bilinear.take_point(GROUP, encode_point(GROUP, pt), 0),
     MalformedElementError),
    ("decode_flow", lambda pt, path: decode_flow(
        PARAMS, encode_flow(PARAMS, "initiator", "alice", FlowMessage(pt))), InvalidFlowError),
    ("load_identity g_id", lambda pt, path: _saved_and_loaded(
        path, keystore.save_identity, keystore.load_identity,
        IdentityKey(ALICE.identity, pt, ALICE.d_id)), KeystoreError),
    ("load_identity d_id", lambda pt, path: _saved_and_loaded(
        path, keystore.save_identity, keystore.load_identity,
        IdentityKey(ALICE.identity, ALICE.g_id, pt)), KeystoreError),
    ("load_state", lambda pt, path: _saved_and_loaded(
        path, keystore.save_state, keystore.load_state, b"bob", X, FlowMessage(pt)),
     KeystoreError),
    ("World.send", lambda pt, path: _world_send(pt), InvalidFlowError),
    ("derive peer flow", lambda pt, path: derive(
        PARAMS, ALICE, X, MSG_A, "bob", FlowMessage(pt), "initiator"), InvalidFlowError),
    ("derive own flow", lambda pt, path: derive(
        PARAMS, ALICE, X, FlowMessage(pt), "bob", MSG_B, "initiator"), InvalidFlowError),
    ("pfs_verify_extra flow", lambda pt, path: protocol.pfs_verify_extra(
        PARAMS, ALICE, "bob", FlowMessage(pt), EXTRA), InvalidFlowError),
    ("pfs_verify_extra extra", lambda pt, path: protocol.pfs_verify_extra(
        PARAMS, ALICE, "bob", MSG_B, pt), InvalidFlowError),
    ("validate_flow_point", lambda pt, path: protocol.validate_flow_point(PARAMS, pt),
     InvalidFlowError),
    ("master_compromise_compute", lambda pt, path: protocol.master_compromise_compute(
        PARAMS, MSK, "alice", "bob", FlowMessage(pt), MSG_B), InvalidFlowError),
    ("solve_dlog base", lambda pt, path: solve_dlog(GROUP, pt, GEN), MalformedElementError),
    ("solve_dlog target", lambda pt, path: solve_dlog(GROUP, GEN, pt), MalformedElementError),
    ("validate_instance", lambda pt, path: validate_instance(
        GROUP, CbdhInstance(GEN, pt, INSTANCE.y_point, INSTANCE.z_point)), ValueError),
    ("MockCbdhOracle base", lambda pt, path: MockCbdhOracle(GROUP, pt, 1.0, random.Random(0)),
     MalformedElementError),
    ("MockCbdhOracle query", lambda pt, path: _ask_oracle(
        CbdhInstance(GEN, pt, INSTANCE.y_point, INSTANCE.z_point)), MalformedElementError),
    ("point_add left", lambda pt, path: bilinear.point_add(GROUP, pt, GEN),
     MalformedElementError),
    ("point_add right", lambda pt, path: bilinear.point_add(GROUP, GEN, pt),
     MalformedElementError),
    ("scalar_exp", lambda pt, path: bilinear.scalar_exp(GROUP, pt, 5), MalformedElementError),
    ("fixed_base_exp", lambda pt, path: bilinear.fixed_base_exp(GROUP, pt, 5),
     MalformedElementError),
    ("pairing left", lambda pt, path: bilinear.pairing(GROUP, pt, GEN), MalformedElementError),
    ("pairing right", lambda pt, path: bilinear.pairing(GROUP, GEN, pt), MalformedElementError),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in BOUNDARY],
                         ids=[case[0] for case in BOUNDARY])
def test_every_boundary_refuses_an_off_curve_point(call, error, tmp_path):
    with pytest.raises(error):
        call(OFF, tmp_path / "entry.key")


def test_in_subgroup_answers_false_off_the_curve():
    assert not is_on_curve(GROUP, OFF)
    assert not in_subgroup(GROUP, OFF)


def test_pairing_refuses_a_left_point_outside_the_subgroup():
    # on the curve, so only the Miller loop's end at [q]left refuses it;
    # the right argument may be any curve point
    outside = bilinear.point_add(GROUP, GEN, GElem(0, 0))
    assert is_on_curve(GROUP, outside) and not in_subgroup(GROUP, outside)
    with pytest.raises(MalformedElementError, match="^left point is outside the order-q subgroup$"):
        bilinear.pairing(GROUP, outside, GEN)
    bilinear.pairing(GROUP, GEN, outside)


def _count_curve_checks(monkeypatch, checked: list) -> None:
    """Append every later is_on_curve call's point to checked, in the two
    modules on derive's and World.send's path that bind the name."""

    def counting(params, point):
        checked.append(point)
        return is_on_curve(params, point)

    for module in (bilinear, protocol):
        monkeypatch.setattr(module, "is_on_curve", counting)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label())
def test_a_warm_derive_checks_only_the_points_it_receives_and_adds(strategy, monkeypatch):
    args = (PARAMS, ALICE, X, MSG_A, "bob", MSG_B, "initiator", strategy)
    derive(*args)  # builds the window tables and caches the hashed identity
    checked = []
    _count_curve_checks(monkeypatch, checked)
    derive(*args)
    # both flows and nothing else: the blends walk warm window tables from
    # the point they add, so no point_add checks its arguments
    assert len(checked) == 2


def _counted_send(world, checked, oracle, flow):
    """world.send(oracle, flow), and the curve checks it made."""
    start = len(checked)
    return world.send(oracle, flow), len(checked) - start


def test_a_warm_world_send_checks_an_emitted_flow_only_when_decoding_it(monkeypatch):
    world = World(PARAMS, MSK, rng=random.Random(0))
    checked = []

    def exchange():
        """The curve checks of a responder send, an initiator completion
        and a responder send of the flow's bytes."""
        initiator = world.new_oracle("alice", "bob")
        flow = world.send(initiator, None)
        reply, responder = _counted_send(world, checked, world.new_oracle("bob", "alice"), flow)
        _, completion = _counted_send(world, checked, initiator, reply)
        _, from_bytes = _counted_send(
            world, checked, world.new_oracle("bob", "alice"), encode_point(GROUP, flow.r))
        return responder, completion, from_bytes

    exchange()  # builds the window tables and caches the hashed identities
    _count_curve_checks(monkeypatch, checked)
    # the world emitted both flows, so they are in the subgroup by
    # construction and nothing checks them; decoding the bytes checks once
    assert exchange() == (0, 0, 1)


def test_a_warm_world_send_checks_a_flow_it_did_not_emit_once(monkeypatch):
    world = World(PARAMS, MSK, rng=random.Random(0))
    foreign = bilinear.fixed_base_exp(GROUP, GEN, 12345)  # in the subgroup, never emitted
    checked = []

    def responder_checks(flow):
        return _counted_send(world, checked, world.new_oracle("bob", "alice"), flow)[1]

    responder_checks(FlowMessage(foreign))  # builds the window tables
    _count_curve_checks(monkeypatch, checked)
    # _check_flow_form at the world's boundary, and nothing after it: the
    # subgroup check that follows is _in_group, which trusts the curve, and
    # the world derives past derive's checks; decoding the bytes adds one
    assert responder_checks(FlowMessage(foreign)) == 1
    assert responder_checks(encode_point(GROUP, foreign)) == 2


def _count_calls(monkeypatch, counts: Counter, name: str) -> None:
    """Count every later call of bilinear's name in counts, through both
    bindings on World.send's path: bilinear's and the one protocol
    imported."""
    real = getattr(bilinear, name)

    def counting(*args):
        counts[name] += 1
        return real(*args)

    for module in (bilinear, protocol):
        monkeypatch.setattr(module, name, counting)


def test_a_warm_world_relay_pairs_by_cached_lines_and_checks_only_foreign_flows(monkeypatch):
    world = World(PARAMS, MSK, rng=random.Random(0))
    foreign = bilinear.fixed_base_exp(GROUP, GEN, 12345)  # in the subgroup, never emitted
    counts = Counter()

    def counted_send(oracle, flow):
        """world.send(oracle, flow), with the OPS and the calls it made."""
        before, calls = bilinear.OPS.copy(), counts.copy()
        reply = world.send(oracle, flow)
        ops = Counter({kind: bilinear.OPS[kind] - before[kind] for kind in before})
        return reply, ops, counts - calls

    def relay():
        """The OPS of a relay, and the calls of each of its three sends."""
        initiator = world.new_oracle("alice", "bob")
        flow, opened, first = counted_send(initiator, None)
        reply, answered, second = counted_send(world.new_oracle("bob", "alice"), flow)
        _, completed, third = counted_send(initiator, reply)
        return opened + answered + completed, (first, second, third)

    relay()  # builds the window and line tables and caches the hashed identities
    counted_send(world.new_oracle("bob", "alice"), FlowMessage(foreign))
    _count_calls(monkeypatch, counts, "_checked_pairing")
    _count_calls(monkeypatch, counts, "_in_group")
    # each derive pairs the blend against its owner's d_id lines (c2-nopre),
    # so it raises the pairing to one exp_gt where c1-nopre walked d_id by
    # one exp_g; the two exp_g are the oracles' flows, the two exp_g_add
    # their blends, and no Miller loop runs
    ops, calls = relay()
    assert ops == {"pairing": 2, "exp_gt": 2, "exp_g": 2, "exp_g_add": 2}
    # an emitted flow is in the subgroup by construction, so no _in_group runs
    assert calls == (Counter(), Counter(), Counter())
    # a foreign flow is checked once, by _coerce_flow, and its blend trusted
    _, _, foreign_calls = counted_send(world.new_oracle("bob", "alice"), FlowMessage(foreign))
    assert foreign_calls == Counter(_in_group=1)


def test_a_warm_world_relay_raises_in_its_pairing_and_encodes_each_flow_once(monkeypatch):
    world = World(PARAMS, MSK, rng=random.Random(0))
    counts, derives = Counter(), []
    derive_trusted = sessions._derive_trusted

    def counted_derive(*args):
        before = counts.copy()
        shared = derive_trusted(*args)
        derives.append(counts - before)
        return shared

    def relay():
        """A relay's three sends, and the OPS they counted."""
        before = bilinear.OPS.copy()
        initiator = world.new_oracle("alice", "bob")
        reply = world.send(world.new_oracle("bob", "alice"), world.send(initiator, None))
        world.send(initiator, reply)
        return Counter({kind: bilinear.OPS[kind] - before[kind] for kind in before})

    relay()  # builds the window and line tables and caches the hashed identities
    _count_calls(monkeypatch, counts, "gt_exp")
    _count_calls(monkeypatch, counts, "encode_point")
    monkeypatch.setattr(sessions, "_derive_trusted", counted_derive)
    # the counts of the work stay those of a pairing and a gt_exp per derive
    assert relay() == {"pairing": 2, "exp_gt": 2, "exp_g": 2, "exp_g_add": 2}
    # but each derive raises inside its pairing's final exponentiation, so
    # it calls no gt_exp, and pi encodes each of its two flows once
    assert derives == [Counter(encode_point=2)] * 2
