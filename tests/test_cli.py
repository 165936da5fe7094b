"""Command-line tests: exit codes, file round trips, report formats."""

import contextlib
import functools
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import bilinear, cli, keystore
from idak.bilinear import (
    INFINITY,
    GElem,
    GroupParams,
    encode_group_params,
    encode_point,
    hash_to_group,
    scalar_exp,
)
from idak.cli import main
from idak.protocol import FlowMessage, IdentityKey, SystemParams, decode_flow, encode_flow
from idak.sessions import run_scenario
from test_protocol import rogue_point

ROOT = Path(__file__).resolve().parents[1]


def _make_keyring(root, k, seed, names):
    """setup at k bits into root, then extract a key for each name; the
    file paths by name."""
    assert main(["setup", "--k-bits", str(k), "--seed", seed, "--out", str(root),
                 "--quiet"]) == 0
    paths = {
        "params": str(root / "params.key"),
        "master": str(root / "master.key"),
        "root": root,
    }
    for name in names:
        paths[name] = str(root / f"{name}.key")
        assert main(["extract", name, "--params", paths["params"], "--master", paths["master"],
                     "--out", paths[name], "--quiet"]) == 0
    return paths


@pytest.fixture(scope="module")
def keyring(tmp_path_factory):
    """One k=10 deployment shared by the read-only command tests."""
    return _make_keyring(tmp_path_factory.mktemp("keyring"), 10, "cli",
                         ("alice", "bob", "charlie"))


def exchange(keyring, tmp_path, *, seed_a="a", seed_b="b", pfs=False,
             responder="bob", strategy="c1-nopre", pi=None, tag=""):
    """Drive initiate/respond/finalize, returning the two key file paths."""
    flow_a = str(tmp_path / f"a{tag}.flow")
    flow_b = str(tmp_path / f"b{tag}.flow")
    state = str(tmp_path / f"a{tag}.state")
    key_a = str(tmp_path / f"alice{tag}.session")
    key_b = str(tmp_path / f"resp{tag}.session")
    base = ["--params", keyring["params"]]
    assert main(["initiate", *base, "--key", keyring["alice"], "--peer", "bob",
                 "--flow-out", flow_a, "--state-out", state, "--seed", seed_a,
                 "--quiet"]) == 0
    flags = ["--strategy", strategy] + (["--pfs"] if pfs else []) + (["--pi", pi] if pi else [])
    assert main(["respond", *base, "--key", keyring[responder], "--flow-in", flow_a,
                 "--flow-out", flow_b, "--key-out", key_b, "--seed", seed_b,
                 *flags, "--quiet"]) == 0
    code = main(["finalize", *base, "--key", keyring["alice"], "--state", state,
                 "--flow-in", flow_b, "--key-out", key_a, *flags, "--quiet"])
    return code, key_a, key_b


# ---------------------------------------------------------------------------
# setup / extract / verify-key
# ---------------------------------------------------------------------------


def test_setup_writes_reparsable_files(tmp_path, capsys):
    assert main(["setup", "--k-bits", "16", "--seed", "s", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    group = keystore.load_group(tmp_path / "params.key")
    assert (group.p, group.q, group.h) == (report["p"], report["q"], report["h"])
    alpha = keystore.load_master(tmp_path / "master.key", group)
    assert 1 <= alpha < group.q


def test_setup_same_seed_is_byte_identical(tmp_path):
    for sub in ("one", "two"):
        assert main(["setup", "--k-bits", "10", "--seed", "twin",
                     "--out", str(tmp_path / sub), "--quiet"]) == 0
    for name in ("params.key", "master.key"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_setup_prints_banner(tmp_path, capsys):
    assert main(["setup", "--k-bits", "8", "--seed", "s", "--out", str(tmp_path)]) == 0
    assert "no security" in capsys.readouterr().err


def test_setup_that_finds_no_cofactor_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bilinear, "COFACTOR_CANDIDATE_BOUND", 1)
    assert main(["setup", "--k-bits", "16", "--seed", "s", "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no admissible cofactor h <= 2 for q=")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_setup_rejects_tiny_k_bits(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["setup", "--k-bits", "0", "--out", str(tmp_path)])
    assert info.value.code == 2


def test_extract_is_deterministic(keyring, tmp_path, capsys):
    out = str(tmp_path / "alice2.key")
    args = ["extract", "alice", "--params", keyring["params"],
            "--master", keyring["master"], "--out", out]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    with open(out, "rb") as fresh, open(keyring["alice"], "rb") as original:
        assert fresh.read() == original.read()
    group = keystore.load_group(keyring["params"])
    expected = encode_point(group, hash_to_group(group, "alice")).hex()
    assert report["public"] == expected


def test_extract_rejects_empty_identity(keyring, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["extract", "", "--params", keyring["params"],
              "--master", keyring["master"], "--out", str(tmp_path / "x.key")])
    assert info.value.code == 2


def test_non_utf8_names_are_usage_errors_that_write_nothing(keyring, tmp_path, capsys):
    # a non-UTF-8 argv byte reaches argparse as a lone surrogate
    out = tmp_path / "x.key"
    with pytest.raises(SystemExit) as info:
        main(["extract", "\udcff", "--params", keyring["params"],
              "--master", keyring["master"], "--out", str(out)])
    assert info.value.code == 2
    flow, state = tmp_path / "a.flow", tmp_path / "a.state"
    with pytest.raises(SystemExit) as info:
        main(["initiate", "--params", keyring["params"], "--key", keyring["alice"],
              "--peer", "b\udcff", "--flow-out", str(flow), "--state-out", str(state)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument identity: " in err and "argument --peer: " in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_verify_key_accepts_issued_keys(keyring):
    assert main(["verify-key", keyring["alice"], "--params", keyring["params"],
                 "--master", keyring["master"], "--quiet"]) == 0


def test_verify_key_rejects_forgeries(keyring, tmp_path, capsys):
    group = keystore.load_group(keyring["params"])
    g_id = hash_to_group(group, "mallory")
    forged = IdentityKey(identity=b"mallory", g_id=g_id,
                         d_id=scalar_exp(group, g_id, 2))
    path = tmp_path / "mallory.key"
    keystore.save_identity(path, group, forged)
    assert main(["verify-key", str(path), "--params", keyring["params"],
                 "--master", keyring["master"]]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_oversized_params_file_is_a_quick_data_error(keyring, tmp_path, capsys):
    # consistent p = 4q - 1 of 32k bits, past trial division: without the
    # size bound, primality testing it would stall for minutes
    q = (1 << 32760) + 1
    while not all(v % d for v in (q, 4 * q - 1) for d in range(3, 38, 2)):
        q += 2
    path = tmp_path / "huge.params"
    keystore.write_entry(
        path, "params", encode_group_params(GroupParams(4 * q - 1, q, 4))
    )
    start = time.perf_counter()
    assert main(["extract", "alice", "--params", str(path), "--master", keyring["master"],
                 "--out", str(tmp_path / "alice.key"), "--quiet"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "supported sizes" in capsys.readouterr().err


def test_two_bit_params_file_is_a_data_error(keyring, tmp_path, capsys):
    # p = 11, q = 3 is consistent and prime, but so small that alice and
    # bob would hash to the same public point
    path = tmp_path / "tiny.params"
    keystore.write_entry(path, "params", encode_group_params(GroupParams(11, 3, 4)))
    assert main(["extract", "alice", "--params", str(path), "--master", keyring["master"],
                 "--out", str(tmp_path / "alice.key"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad parameter payload: ") and "supported sizes" in err


@pytest.mark.parametrize("p, q, h", [
    (6787327, 26513, 256),
    (21623659, 63599, 340),
    (60547831, 398341, 152),
])
def test_a_pseudoprime_p_is_a_data_error(keyring, tmp_path, capsys, p, q, h):
    # p = h*q - 1 is a strong pseudoprime to base 2 with no factor below
    # 1000, so only the Lucas step of the test of p refuses it
    path = tmp_path / "pseudoprime.params"
    keystore.write_entry(path, "params", encode_group_params(GroupParams(p, q, h)))
    assert main(["extract", "alice", "--params", str(path), "--master", keyring["master"],
                 "--out", str(tmp_path / "alice.key"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: bad parameter payload: group parameters are not prime\n"
    )
    assert not (tmp_path / "alice.key").exists()


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-byte-over"])
@pytest.mark.parametrize("argv, message", [
    (lambda k, big, out: ["extract", "alice", "--params", big,
                          "--master", k["master"], "--out", out],
     "error: key file is larger than 262144 bytes\n"),
    (lambda k, big, out: ["respond", "--params", k["params"], "--key", k["bob"],
                          "--flow-in", big, "--flow-out", out, "--key-out", out],
     "error: invalid-flow: flow file is larger than 262144 bytes\n"),
    (lambda k, big, out: ["scenario", big],
     "error: scenario: {big} is larger than 262144 bytes\n"),
], ids=["key", "flow", "scenario"])
def test_an_input_file_past_the_read_bound_is_a_data_error(keyring, tmp_path, capsys,
                                                            argv, message, over):
    # a sparse file of zeros: one byte past the bound is refused for its size
    # alone; at the bound it is read, and refused for what it holds
    assert keystore._MAX_FILE_BYTES == 256 * 1024
    big = str(tmp_path / "big")
    with open(big, "wb") as handle:
        handle.truncate(keystore._MAX_FILE_BYTES + over)
    out = str(tmp_path / "out")
    assert main([*argv(keyring, big, out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (err == message.format(big=big)) is bool(over)
    assert not os.path.exists(out)


def test_missing_file_is_a_data_error(keyring, tmp_path):
    assert main(["verify-key", str(tmp_path / "nope.key"), "--params",
                 keyring["params"], "--master", keyring["master"], "--quiet"]) == 1


@pytest.mark.parametrize("data, argv", [
    (b"\xff", lambda k, bad, out: ["extract", "alice", "--params", bad,
                                   "--master", k["master"], "--out", out]),
    (b"idak keystore v1 kind=identity\n\xff\xfe\n",
     lambda k, bad, out: ["initiate", "--params", k["params"], "--key", bad, "--peer", "bob",
                          "--flow-out", out, "--state-out", out]),
    (b'{"q": "send"}\xff\n', lambda k, bad, out: ["scenario", bad]),
], ids=["params", "identity", "scenario"])
def test_undecodable_input_file_is_a_data_error(keyring, tmp_path, capsys, data, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    assert main([*argv(keyring, str(bad), str(tmp_path / "out")), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# the exchange
# ---------------------------------------------------------------------------


def test_exchange_round_trip(keyring, tmp_path):
    code, key_a, key_b = exchange(keyring, tmp_path)
    assert code == 0
    with open(key_a, "rb") as a, open(key_b, "rb") as b:
        assert a.read() == b.read()


def test_exchange_all_strategies_agree(keyring, tmp_path):
    references = None
    for strategy in ("c1-nopre", "c1-pre", "c2-nopre", "c2-pre"):
        code, key_a, key_b = exchange(keyring, tmp_path, strategy=strategy, tag=strategy)
        assert code == 0
        content = keystore.load_session(key_a)
        assert content == keystore.load_session(key_b)
        if references is None:
            references = content
        else:
            assert content == references  # strategies differ only in cost


def test_flow_out_over_a_longer_file_holds_only_the_new_flow(keyring, tmp_path):
    # flow files are rewritten in place and cut to length, not truncated first
    def initiate(flow):
        assert main(["initiate", "--params", keyring["params"], "--key", keyring["alice"],
                     "--peer", "bob", "--flow-out", str(flow),
                     "--state-out", str(tmp_path / "a.state"), "--seed", "w", "--quiet"]) == 0
        return flow.read_bytes()

    fresh = initiate(tmp_path / "fresh.flow")
    stale = tmp_path / "stale.flow"
    stale.write_bytes(b"\xff" * 4096)
    stale.chmod(0o640)
    assert initiate(stale) == fresh
    assert stale.stat().st_mode & 0o777 == 0o640  # the file is rewritten, not replaced
    code, key_a, key_b = exchange(keyring, tmp_path, tag="again")
    assert code == 0
    assert keystore.load_session(key_a) == keystore.load_session(key_b)
    code, key_a, key_b = exchange(keyring, tmp_path, seed_a="a2", seed_b="b2", tag="again")
    assert code == 0
    assert keystore.load_session(key_a) == keystore.load_session(key_b)


def test_flow_out_may_be_a_device(keyring, tmp_path):
    assert main(["initiate", "--params", keyring["params"], "--key", keyring["alice"],
                 "--peer", "bob", "--flow-out", os.devnull,
                 "--state-out", str(tmp_path / "a.state"), "--quiet"]) == 0


def test_respond_reports_strategy_counts(keyring, tmp_path, capsys):
    flow_a = str(tmp_path / "a.flow")
    state = str(tmp_path / "a.state")
    base = ["--params", keyring["params"]]
    assert main(["initiate", *base, "--key", keyring["alice"], "--peer", "bob",
                 "--flow-out", flow_a, "--state-out", state, "--seed", "x",
                 "--quiet"]) == 0
    assert main(["respond", *base, "--key", keyring["bob"], "--flow-in", flow_a,
                 "--flow-out", str(tmp_path / "b.flow"),
                 "--key-out", str(tmp_path / "b.session"),
                 "--seed", "y", "--strategy", "c2-pre"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"pairings": 1, "exp_g": 0.5, "mul_g": 1, "exp_gt": 1}


def test_pfs_round_trip_differs_from_base(keyring, tmp_path):
    code, base_a, _ = exchange(keyring, tmp_path, seed_a="s1", seed_b="s2", tag="base")
    assert code == 0
    code, pfs_a, pfs_b = exchange(keyring, tmp_path, seed_a="s1", seed_b="s2",
                                  pfs=True, tag="pfs")
    assert code == 0
    assert keystore.load_session(pfs_a) == keystore.load_session(pfs_b)
    assert keystore.load_session(pfs_a) != keystore.load_session(base_a)


def test_pi_variant_round_trip_differs_from_default(keyring, tmp_path):
    code, base_a, _ = exchange(keyring, tmp_path, seed_a="v1", seed_b="v2", tag="base")
    assert code == 0
    code, xor_a, xor_b = exchange(keyring, tmp_path, seed_a="v1", seed_b="v2",
                                  pi="xor-half", tag="xor")
    assert code == 0
    assert keystore.load_session(xor_a) == keystore.load_session(xor_b)
    assert keystore.load_session(xor_a) != keystore.load_session(base_a)


@pytest.mark.parametrize("command", ["extract", "verify-key", "initiate"])
def test_pi_is_refused_where_it_changes_nothing(keyring, tmp_path, command):
    argv = {
        "extract": ["extract", "dora", "--master", keyring["master"],
                    "--out", str(tmp_path / "dora.key")],
        "verify-key": ["verify-key", keyring["alice"], "--master", keyring["master"]],
        "initiate": ["initiate", "--key", keyring["alice"], "--peer", "bob",
                     "--flow-out", str(tmp_path / "a.flow"),
                     "--state-out", str(tmp_path / "a.state")],
    }[command]
    assert main([*argv, "--params", keyring["params"], "--quiet"]) == 0
    with pytest.raises(SystemExit) as info:
        main([*argv, "--params", keyring["params"], "--pi", "xor-half", "--quiet"])
    assert info.value.code == 2


def test_mixed_pfs_flags_are_rejected(keyring, tmp_path, capsys):
    flow_a = str(tmp_path / "a.flow")
    flow_b = str(tmp_path / "b.flow")
    state = str(tmp_path / "a.state")
    base = ["--params", keyring["params"]]
    main(["initiate", *base, "--key", keyring["alice"], "--peer", "bob",
          "--flow-out", flow_a, "--state-out", state, "--seed", "p", "--quiet"])
    main(["respond", *base, "--key", keyring["bob"], "--flow-in", flow_a,
          "--flow-out", flow_b, "--key-out", str(tmp_path / "b.session"),
          "--seed", "q", "--pfs", "--quiet"])
    assert main(["finalize", *base, "--key", keyring["alice"], "--state", state,
                 "--flow-in", flow_b, "--key-out", str(tmp_path / "a.session"),
                 "--quiet"]) == 1
    assert "invalid-flow" in capsys.readouterr().err


def test_malformed_flow_is_invalid(keyring, tmp_path, capsys):
    bad = tmp_path / "garbage.flow"
    bad.write_bytes(b"\xde\xad\xbe\xef")
    assert main(["respond", "--params", keyring["params"], "--key", keyring["bob"],
                 "--flow-in", str(bad), "--flow-out", str(tmp_path / "b.flow"),
                 "--key-out", str(tmp_path / "b.session"), "--quiet"]) == 1
    assert "invalid-flow" in capsys.readouterr().err


def _bad_points(group):
    """A curve point outside the order-q subgroup, and the identity."""
    return {"rogue": rogue_point(group), "identity": INFINITY}


def _hostile_flow(keyring, tmp_path, role, sender, r=None, extra=None):
    """A wire flow with the given points, honest ones where none is given."""
    from idak.cli import _system_params  # reuse the exact CLI construction

    class Args:
        params = keyring["params"]
        pi = "hash-half"

    params = _system_params(Args)
    if r is None:
        r = hash_to_group(params.group, "honest")
    wire = encode_flow(params, role, sender, FlowMessage(r=r), extra)
    path = tmp_path / "hostile.flow"
    path.write_bytes(wire)
    return str(path)


def _respond(keyring, tmp_path, flow, *flags):
    return main(["respond", "--params", keyring["params"], "--key", keyring["bob"],
                 "--flow-in", flow, "--flow-out", str(tmp_path / "b.flow"),
                 "--key-out", str(tmp_path / "b.session"), "--quiet", *flags])


def _finalize(keyring, tmp_path, flow, *flags):
    state = str(tmp_path / "a.state")
    assert main(["initiate", "--params", keyring["params"], "--key", keyring["alice"],
                 "--peer", "bob", "--flow-out", str(tmp_path / "a.flow"),
                 "--state-out", state, "--seed", "h", "--quiet"]) == 0
    return main(["finalize", "--params", keyring["params"], "--key", keyring["alice"],
                 "--state", state, "--flow-in", flow,
                 "--key-out", str(tmp_path / "a.session"), "--quiet", *flags])


@pytest.mark.parametrize("kind", ["rogue", "identity"])
@pytest.mark.parametrize("command, pfs, field", [
    ("respond", False, "r"),
    ("finalize", False, "r"),
    ("finalize", True, "r"),
    ("finalize", True, "extra"),
], ids=["respond-r", "finalize-r", "finalize-pfs-r", "finalize-pfs-extra"])
def test_rogue_point_is_rejected(keyring, tmp_path, capsys, command, pfs, field, kind):
    group = keystore.load_group(keyring["params"])
    bad = _bad_points(group)[kind]
    if command == "respond":
        flow = _hostile_flow(keyring, tmp_path, "initiator", b"alice", r=bad)
        code = _respond(keyring, tmp_path, flow)
    else:
        honest_extra = hash_to_group(group, "extra") if pfs else None
        points = {"r": bad, "extra": honest_extra} if field == "r" else {"extra": bad}
        flow = _hostile_flow(keyring, tmp_path, "responder", b"bob", **points)
        code = _finalize(keyring, tmp_path, flow, *(["--pfs"] if pfs else []))
    assert code == 1
    assert "error: rejected-point: " in capsys.readouterr().err
    assert not (tmp_path / "b.session").exists()
    assert not (tmp_path / "a.session").exists()


def test_an_invalid_own_flow_is_reported_before_a_rogue_point(keyring, tmp_path, capsys):
    # load_state accepts a state whose own flow is the identity (payload
    # ending 00); derive checks the own flow before the pairing that is
    # the received point's subgroup check
    group = keystore.load_group(keyring["params"])
    state = tmp_path / "a.state"
    keystore.save_state(str(state), group, "bob", 1, FlowMessage(r=INFINITY))
    assert keystore.read_entry(str(state), "state").endswith(b"\x00")
    flow = _hostile_flow(keyring, tmp_path, "responder", b"bob", r=rogue_point(group))
    assert main(["finalize", "--params", keyring["params"], "--key", keyring["alice"],
                 "--state", str(state), "--flow-in", flow,
                 "--key-out", str(tmp_path / "a.session"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: rejected-point: own flow point is invalid\n"
    assert not (tmp_path / "a.session").exists()


def test_framing_faults_are_reported_before_point_checks(keyring, tmp_path, capsys):
    # decoding and role checks run before any subgroup check of a point
    bad = _bad_points(keystore.load_group(keyring["params"]))["rogue"]
    flow = _hostile_flow(keyring, tmp_path, "initiator", b"alice", extra=bad)
    assert _respond(keyring, tmp_path, flow) == 1
    assert capsys.readouterr().err == (
        "error: invalid-flow: initiator flows carry no extra point\n"
    )
    flow = _hostile_flow(keyring, tmp_path, "initiator", b"bob", r=bad)
    assert _finalize(keyring, tmp_path, flow) == 1
    assert capsys.readouterr().err == "error: invalid-flow: expected a responder flow\n"


def test_finalize_pfs_refuses_an_extra_that_fails_the_pairing_check(keyring, tmp_path, capsys):
    # an honest flow point with an extra point of the subgroup not made from its y
    group = keystore.load_group(keyring["params"])
    flow = _hostile_flow(keyring, tmp_path, "responder", b"bob",
                         extra=hash_to_group(group, "extra"))
    assert _finalize(keyring, tmp_path, flow, "--pfs") == 1
    assert capsys.readouterr().err == "error: invalid-flow: extra point fails the pairing check\n"
    assert not (tmp_path / "a.session").exists()


def test_finalize_pfs_refuses_a_flow_without_extra(keyring, tmp_path, capsys):
    flow = _hostile_flow(keyring, tmp_path, "responder", b"bob")
    assert _finalize(keyring, tmp_path, flow, "--pfs") == 1
    assert capsys.readouterr().err == (
        "error: invalid-flow: flow carries no extra point; responder ran without --pfs\n"
    )
    assert not (tmp_path / "a.session").exists()


def test_swapped_role_flows_are_rejected(keyring, tmp_path, capsys):
    flow_a = str(tmp_path / "a.flow")
    state = str(tmp_path / "a.state")
    base = ["--params", keyring["params"]]
    main(["initiate", *base, "--key", keyring["alice"], "--peer", "bob",
          "--flow-out", flow_a, "--state-out", state, "--seed", "r", "--quiet"])
    # an initiator flow fed back to finalize
    assert main(["finalize", *base, "--key", keyring["alice"], "--state", state,
                 "--flow-in", flow_a, "--key-out", str(tmp_path / "x.session"),
                 "--quiet"]) == 1
    assert "invalid-flow" in capsys.readouterr().err


def test_finalize_checks_the_responder_identity(keyring, tmp_path, capsys):
    # alice opened the session toward bob; charlie answers instead
    code, *_ = exchange(keyring, tmp_path, responder="charlie")
    assert code == 1
    assert "invalid-flow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hostile files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pfs_exchange(tmp_path_factory):
    """One seeded k=12 --pfs exchange: its SystemParams, and its files as
    bytes by file name."""
    root = tmp_path_factory.mktemp("pfs")
    _make_keyring(root, 12, "hostile", ("alice", "bob"))
    base = ["--params", str(root / "params.key"), "--quiet"]
    assert main(["initiate", *base, "--key", str(root / "alice.key"), "--peer", "bob",
                 "--flow-out", str(root / "a.flow"), "--state-out", str(root / "a.state"),
                 "--seed", "a"]) == 0
    assert main(["respond", *base, "--key", str(root / "bob.key"), "--pfs", "--seed", "b",
                 "--flow-in", str(root / "a.flow"), "--flow-out", str(root / "b.flow"),
                 "--key-out", str(root / "b.session")]) == 0
    files = {path.name: path.read_bytes() for path in root.iterdir()}
    return SystemParams(keystore.load_group(root / "params.key")), files


def _mutated(data, params, name, original):
    """original with one drawn bit flip, truncation, appended run or replaced
    byte.  A flow may instead have a point swapped for the identity, for a
    curve point outside the subgroup, for (0, 0) of order 2, which only
    derive's checks refuse, or for (1, 1), which is off the curve."""
    kinds = ["flip", "truncate", "append", "replace"]
    if name.endswith(".flow"):
        kinds.append("point")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "point":
        role, sender, msg, extra = decode_flow(params, original)
        bad = data.draw(st.sampled_from([INFINITY, rogue_point(params.group), GElem(0, 0),
                                         GElem(1, 1)]), label="point")
        if extra is not None and data.draw(st.booleans(), label="extra"):
            return encode_flow(params, role, sender, msg, bad)
        return encode_flow(params, role, sender, FlowMessage(r=bad), extra)
    if kind == "append":
        return original + data.draw(st.binary(min_size=1, max_size=64), label="tail")
    at = data.draw(st.integers(0, len(original) - 1), label="at")
    if kind == "truncate":
        return original[:at]
    if kind == "flip":
        byte = original[at] ^ (1 << data.draw(st.integers(0, 7), label="bit"))
    else:
        byte = data.draw(st.integers(0, 255), label="byte")
    return original[:at] + bytes([byte]) + original[at + 1:]


@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(data=st.data())
def test_a_mutated_input_file_exits_0_or_1_and_writes_only_on_success(pfs_exchange, data):
    # respond reads a mutated a.flow; finalize reads any other mutated file,
    # and initiate may read a mutated alice.key or params.key instead
    target = data.draw(st.sampled_from(["a.flow", "a.state", "b.flow", "alice.key",
                                        "params.key"]), label="target")
    command = "respond" if target == "a.flow" else "finalize"
    if target in ("alice.key", "params.key"):
        command = data.draw(st.sampled_from([command, "initiate"]), label="command")
    strategy = data.draw(st.sampled_from(cli.STRATEGY_CHOICES), label="strategy")
    params, files = pfs_exchange
    with tempfile.TemporaryDirectory() as scratch:  # hypothesis refuses tmp_path
        root = Path(scratch)
        for name, content in files.items():
            (root / name).write_bytes(content)
        (root / target).write_bytes(_mutated(data, params, target, files[target]))
        key_out, flow_out, state_out = root / "out.session", root / "out.flow", root / "out.state"
        argv = [command, "--params", str(root / "params.key"), "--quiet"]
        flags = ["--strategy", strategy, "--pfs", "--key-out", str(key_out)]
        if command == "initiate":
            argv += ["--key", str(root / "alice.key"), "--peer", "bob", "--seed", "a",
                     "--flow-out", str(flow_out), "--state-out", str(state_out)]
            outputs = [flow_out, state_out]
        elif command == "respond":
            argv += [*flags, "--key", str(root / "bob.key"), "--seed", "b",
                     "--flow-in", str(root / "a.flow"), "--flow-out", str(flow_out)]
            outputs = [key_out, flow_out]
        else:
            argv += [*flags, "--key", str(root / "alice.key"),
                     "--state", str(root / "a.state"), "--flow-in", str(root / "b.flow")]
            outputs = [key_out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1) and "Traceback" not in err.getvalue(), err.getvalue()
        if code == 0:
            assert all(path.exists() for path in outputs)
            if key_out in outputs:
                keystore.load_session(key_out)
        else:
            assert not any(path.exists() for path in (key_out, flow_out, state_out))


# ---------------------------------------------------------------------------
# bench / scenario / reduce
# ---------------------------------------------------------------------------


def test_bench_prints_four_tsv_rows(keyring, capsys):
    assert main(["bench", "--params", keyring["params"], "--trials", "2",
                 "--seed", "t"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["strategy", "pairings", "exp_g", "mul_g",
                                    "exp_gt", "median_ms"]
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 4
    counts = {row[0]: tuple(row[1:5]) for row in rows}
    assert counts["c2-pre"] == ("1", "0.5", "1", "1")


def test_bench_counts_do_not_depend_on_trials(keyring, capsys):
    main(["bench", "--params", keyring["params"], "--trials", "1", "--seed", "t"])
    first = [line.split("\t")[:5] for line in capsys.readouterr().out.splitlines()[1:]]
    main(["bench", "--params", keyring["params"], "--trials", "3", "--seed", "t"])
    second = [line.split("\t")[:5] for line in capsys.readouterr().out.splitlines()[1:]]
    assert first == second


def test_bench_redraws_the_ephemerals_of_a_degenerate_exchange(tmp_path, capsys, monkeypatch):
    # at k = 4 a derive often meets x + s = 0 (mod q); bench draws both
    # ephemerals again and still prints a row per strategy
    assert main(["setup", "--k-bits", "4", "--seed", "s", "--out", str(tmp_path),
                 "--quiet"]) == 0
    draws, initiate = [], cli.initiate
    monkeypatch.setattr(cli, "initiate", lambda *args: draws.append(1) or initiate(*args))
    assert main(["bench", "--params", str(tmp_path / "params.key"), "--trials", "3",
                 "--seed", "t"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 4
    assert len(draws) > 2 * 4 * 3


def test_bench_exits_three_on_a_cost_mismatch(keyring, capsys, monkeypatch):
    # a table that disagrees with the observed counts makes idak bench fail
    monkeypatch.setattr(cli, "EXPECTED_COSTS", {**cli.EXPECTED_COSTS, "c2-pre": (1, 0.5, 1, 0)})
    assert main(["bench", "--params", keyring["params"], "--trials", "1",
                 "--seed", "t", "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "error: cost mismatch for c2-pre: observed (1, 0.5, 1, 1), expected (1, 0.5, 1, 0)\n"
    )


@pytest.mark.parametrize("name", cli.bundled_scenarios())
def test_scenario_bundled_name(capsys, name):
    # each name that --list prints runs, suffix and all
    assert main(["scenario", name]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["failures"] == []


def _python_env():
    """os.environ with the tested idak package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_bundled_scenario_is_read_as_utf8_not_in_the_locale_encoding():
    # with EncodingWarning raised as an error, a read that falls back to the
    # locale's encoding ends in a traceback and exit 1
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "idak", "scenario", "honest_run", "--quiet"],
        env=_python_env(), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_scenario_list(capsys):
    assert main(["scenario", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "honest_run.jsonl" in names and len(names) == 6


def test_scenario_failure_exits_three(tmp_path, capsys):
    script = tmp_path / "broken.jsonl"
    script.write_text(
        '{"config": {"k_bits": 16, "seed": "broken"}}\n'
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"assert": "completed", "oracle": "A", "expect": true}\n'
    )
    assert main(["scenario", str(script), "--quiet"]) == 3
    assert "scenario line 3" in capsys.readouterr().err


def test_scenario_at_three_bits_reports_its_failed_lines(capsys):
    # at q=5 the responder's combined exponent vanishes on line 5, so the
    # initiator's back-reference to its flow on line 6 fails as a query
    assert main(["scenario", "honest_run", "--k-bits", "3"]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["params"]["q"] == 5 and not report["ok"]
    line5 = {"line": 5, "q": "send", "ok": False, "result": None, "error": "degenerate-exponent"}
    assert line5 in report["log"]
    assert {"line": 6, "q": "send", "ok": False, "result": None, "error": "no-flow"} in report["log"]
    assert "error: scenario line 6: unexpected error no-flow" in captured.err
    assert "back-reference" not in captured.err
    # the coin-1 test on line 14 found no completed oracle, so line 15's
    # test-real-key has no answer to compare with the missing key
    assert {"line": 15, "assert": "test-real-key", "ok": False} in report["log"]
    assert "error: scenario line 15: assertion test-real-key failed" in captured.err


def test_an_integer_seed_means_its_decimal_text(tmp_path, capsys):
    # {"seed": 5} in the file and --seed 5 on the command line build one world
    queries = (
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "B", "i": "b", "j": "a", "x": "@A.out"}\n'
    )
    seeded = tmp_path / "seeded.jsonl"
    seeded.write_text('{"config": {"k_bits": 12, "seed": 5}}\n' + queries)
    bare = tmp_path / "bare.jsonl"
    bare.write_text('{"config": {"k_bits": 12}}\n' + queries)
    assert main(["scenario", str(seeded)]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert main(["scenario", str(bare), "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == from_file
    assert run_scenario(bare.read_text().splitlines(), seed=5) == from_file
    assert run_scenario(bare.read_text().splitlines()) != from_file  # the seed is used


def test_scenario_missing_file(capsys):
    assert main(["scenario", "no_such_scenario", "--quiet"]) == 1


def test_scenario_without_a_file_or_list_is_a_usage_error(capsys):
    assert main(["scenario"]) == 2
    assert "a scenario file is required" in capsys.readouterr().err


def test_scenario_cli_matches_library(capsys):
    assert main(["scenario", "rerouted_responder"]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    from idak.cli import _scenario_lines

    direct = run_scenario(_scenario_lines("rerouted_responder"))
    assert cli_report == json.loads(json.dumps(direct))


def test_reduce_perfect_oracle(capsys):
    assert main(["reduce", "--delta", "1", "--n", "1", "--trials", "5",
                 "--k-bits", "8", "--seed", "r"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success_rate"] == 1.0
    assert report["n"] == 1 and report["trials"] == 5


def test_reduce_amplification_beats_noise(capsys):
    assert main(["reduce", "--delta", "0.3", "--n", "51", "--trials", "6",
                 "--k-bits", "8", "--seed", "r2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success_rate"] == 1.0


def test_respond_refuses_a_degenerate_exponent_and_writes_nothing(tmp_path, capsys):
    # at k=3 (q=5) a combined exponent vanishes for some responder seeds
    base = ["--params", str(tmp_path / "params.key"), "--quiet"]
    assert main(["setup", "--k-bits", "3", "--seed", "deg", "--out", str(tmp_path),
                 "--quiet"]) == 0
    for name in ("alice", "bob"):
        assert main(["extract", name, *base, "--master", str(tmp_path / "master.key"),
                     "--out", str(tmp_path / f"{name}.key")]) == 0
    assert main(["initiate", *base, "--key", str(tmp_path / "alice.key"), "--peer", "bob",
                 "--flow-out", str(tmp_path / "a.flow"), "--state-out", str(tmp_path / "a.state"),
                 "--seed", "0"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    for seed in range(20):
        code = main(["respond", *base, "--key", str(tmp_path / "bob.key"),
                     "--flow-in", str(tmp_path / "a.flow"), "--flow-out", str(out / "b.flow"),
                     "--key-out", str(out / "b.session"), "--seed", str(seed)])
        if code != 0:
            break
        for written in out.iterdir():
            written.unlink()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate-exponent: ")
    assert "responder rejects this session" in err
    assert not any(out.iterdir())


def test_quiet_silences_reports(keyring, capsys):
    assert main(["bench", "--params", keyring["params"], "--trials", "1",
                 "--seed", "t", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_repeated_main_calls_reuse_one_parser(keyring, tmp_path, capsys):
    code, pfs_a, pfs_b = exchange(keyring, tmp_path, pfs=True, tag="pfs")
    assert code == 0
    with pytest.raises(SystemExit) as info:
        main(["respond", "--params", keyring["params"], "--strategy", "c9"])
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    code, plain_a, plain_b = exchange(keyring, tmp_path, tag="plain")
    assert code == 0
    assert keystore.load_session(pfs_a) == keystore.load_session(pfs_b)
    assert keystore.load_session(plain_a) == keystore.load_session(plain_b)
    assert keystore.load_session(pfs_a) != keystore.load_session(plain_a)
    assert cli.build_parser.cache_info().misses == 1  # built once in this process


def test_a_key_file_tampered_between_main_calls_is_refused(keyring, tmp_path, capsys):
    # the keystore keeps what it checked per payload, not per path, so the
    # same process reads the changed bytes and checks them in full.  Seeded
    # ephemerals keep each respond from drawing a degenerate exponent
    key = tmp_path / "bob.key"
    good = Path(keyring["bob"]).read_bytes()
    key.write_bytes(good)
    flow_a = str(tmp_path / "a.flow")
    assert main(["initiate", "--params", keyring["params"], "--key", keyring["alice"],
                 "--peer", "bob", "--flow-out", flow_a, "--seed", "a",
                 "--state-out", str(tmp_path / "a.state"), "--quiet"]) == 0
    respond = ["respond", "--params", keyring["params"], "--key", str(key),
               "--flow-in", flow_a, "--flow-out", str(tmp_path / "b.flow"), "--seed", "b",
               "--key-out", str(tmp_path / "bob.session"), "--quiet"]
    assert main(respond) == 0
    group = keystore.load_group(keyring["params"])
    bob = keystore.load_identity(key, group)
    keystore.save_identity(key, group, IdentityKey(bob.identity, bob.g_id, GElem(0, 0)))
    capsys.readouterr()
    assert main(respond) == 1
    assert capsys.readouterr().err == "error: identity key point is outside the subgroup\n"
    key.write_bytes(good)
    assert main(respond) == 0


def test_main_runs_the_command_bound_at_call_time(keyring, tmp_path, monkeypatch):
    # a wrapper bound over cmd_respond after the parser is built is what runs
    code, *_ = exchange(keyring, tmp_path, tag="before")
    assert code == 0
    original, seen = cli.cmd_respond, []

    def wrapper(args):
        seen.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_respond", wrapper)
    code, key_a, key_b = exchange(keyring, tmp_path, tag="after")
    assert code == 0 and seen == ["respond"]
    assert keystore.load_session(key_a) == keystore.load_session(key_b)


@pytest.mark.parametrize("argv", [
    ["reduce", "--trials", "0"],
    ["reduce", "--trials", "-1"],
    ["reduce", "--n", "0"],
    ["reduce", "--delta", "2"],
    ["reduce", "--delta", "-0.5"],
    ["reduce", "--delta", "nan"],
    ["reduce", "--delta", "x"],
    ["bench", "--trials", "0"],
    ["bench", "--trials", "-2"],
    # the mock oracle's baby-step table grows as 2^(k/2)
    ["reduce", "--k-bits", "33"],
    ["reduce", "--k-bits", "64"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_numbers_are_usage_errors(keyring, capsys, argv):
    if argv[0] == "bench":
        argv = [*argv, "--params", keyring["params"]]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: " in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the README walkthrough and the idak script
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_keyrings(tmp_path_factory):
    """keyring(k): the walkthrough's setup --seed demo at k bits, with alice
    and bob extracted, made on first use."""
    @functools.cache
    def keyring(k):
        return _make_keyring(tmp_path_factory.mktemp(f"demo{k}"), k, "demo", ("alice", "bob"))

    return keyring


# every --pi variant at k = 16 and the default alone at k = 128, each under
# every strategy, plain and with --pfs
@pytest.mark.parametrize("pfs", [False, True], ids=["plain", "pfs"])
@pytest.mark.parametrize("strategy", cli.STRATEGY_CHOICES)
@pytest.mark.parametrize("k, pi", [(16, pi) for pi in cli.PI_CHOICES] + [(128, "hash-half")])
def test_the_walkthrough_agrees_for_every_pi_strategy_and_pfs(demo_keyrings, tmp_path,
                                                              k, pi, strategy, pfs):
    tag = f"{k}-{pi}-{strategy}{'-pfs' if pfs else ''}"
    code, key_a, key_b = exchange(demo_keyrings(k), tmp_path, seed_a=f"{tag}-a",
                                  seed_b=f"{tag}-b", pfs=pfs, strategy=strategy, pi=pi)
    assert code == 0
    assert Path(key_a).read_bytes() == Path(key_b).read_bytes()


def test_the_readme_walkthrough_runs_as_written_in_fresh_processes(tmp_path):
    # each idak line of the walkthrough runs in its own interpreter, in a
    # scratch directory, as a user would type it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps = [shlex.split(line) for line in block.replace("\\\n", "").splitlines()
             if line.strip() and not line.startswith("#")]
    assert [step[0] for step in steps] == ["idak"] * 6 + ["cmp"], steps
    for step in steps[:-1]:
        done = subprocess.run([sys.executable, "-m", "idak", *step[1:]], cwd=tmp_path,
                              env=_python_env(), capture_output=True, encoding="utf-8",
                              timeout=120)
        assert done.returncode == 0, (step, done.stderr)
    first, second = steps[-1][1:]
    assert (tmp_path / first).read_bytes() == (tmp_path / second).read_bytes()


def test_the_idak_script_runs_cli_main():
    # the installed idak script calls its [project.scripts] target; the file
    # is read as text, since Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0].strip()
    target = re.fullmatch(r'idak = "([\w.]+):(\w+)"', scripts)
    assert target and target.groups() == ("idak.cli", "main"), scripts
    assert getattr(importlib.import_module(target[1]), target[2]) is main
