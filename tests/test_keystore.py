"""Key file armoring tests: round trips, tamper rejection, determinism."""

import dataclasses
import functools
import gc
import os
import random
import stat
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idak import bilinear, keystore
from idak.bilinear import (
    INFINITY,
    GElem,
    decode_group_params,
    encode_group_params,
    encode_point,
    hash_to_group,
    instance_generate,
    sized,
)
from idak.errors import (
    InvalidFlowError,
    InvalidIdentityError,
    KeystoreError,
    MalformedElementError,
)
from idak.protocol import (
    IdentityKey,
    SessionKey,
    decode_flow,
    encode_flow,
    extract,
    initiate,
    setup,
)

PARAMS, MSK = setup(8, "keystore")
GROUP = PARAMS.group


# ---------------------------------------------------------------------------
# armoring layer
# ---------------------------------------------------------------------------


def test_entry_round_trip(tmp_path):
    path = tmp_path / "blob.key"
    keystore.write_entry(path, "session", b"\x00\x01\xff")
    payload = keystore.read_entry(path, "session")
    assert type(payload) is bytes and payload == b"\x00\x01\xff"
    with pytest.raises(TypeError):
        keystore.read_entry(path)


def test_entry_rejects_unknown_kind(tmp_path):
    with pytest.raises(KeystoreError):
        keystore.write_entry(tmp_path / "x.key", "ephemeral", b"")


def test_entry_kind_mismatch(tmp_path):
    path = tmp_path / "blob.key"
    keystore.write_entry(path, "master", b"\x01")
    with pytest.raises(KeystoreError, match="^expected a identity entry, found master$"):
        keystore.read_entry(path, "identity")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "deadbeef\n",
        "idak keystore v1 kind=master\n",
        "idak keystore v1\ndeadbeef\n",
        "idak keystore v1 kind=wat\ndeadbeef\n",
        "idak keystore v1 kind=master\nnot hex\n",
        "idak keystore v1 kind=master\nab\ncd\n",
        "some other header kind=master\nab\n",
        # only the exact header write_entry writes is read
        "idak keystore v10 kind=session\nab\n",
        "idak keystore v1 kind=master kind=session\nab\n",
        "idak keystore v1 junk kind=session\nab\n",
    ],
)
def test_entry_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.key"
    path.write_text(text)
    # the kind the header names, so that no file is refused for its kind alone
    kind = "session" if "kind=session" in text else "master"
    with pytest.raises(KeystoreError):
        keystore.read_entry(path, kind)


def test_a_file_past_the_read_bound_is_refused_for_its_size(tmp_path):
    # a sparse file: the refusal reads one byte past the bound, not the file
    path = tmp_path / "huge.key"
    with open(path, "wb") as handle:
        handle.write(f"{keystore.HEADER_MAGIC} kind=session\n".encode())
        handle.truncate(1 << 26)
    with pytest.raises(KeystoreError, match="^key file is larger than 262144 bytes$"):
        keystore.read_entry(path, "session")


def test_the_largest_identity_key_fits_the_read_bound(tmp_path):
    # a 65535-byte identity at k = 512, the largest key file there is
    params, msk = setup(512, "read-bound")
    key = extract(params, msk, b"\xaa" * 0xFFFF)
    path = tmp_path / "largest.key"
    keystore.save_identity(path, params.group, key)
    assert 128_000 < path.stat().st_size <= keystore._MAX_FILE_BYTES
    assert keystore.load_identity(path, params.group) == key


def test_a_params_payload_with_a_pseudoprime_p_is_refused(tmp_path):
    # 6787327 = 1303 * 5209 = 256 * 26513 - 1 is a strong pseudoprime to
    # base 2; the Lucas step of the test of p refuses it
    path = tmp_path / "pseudoprime.params"
    keystore.write_entry(path, "params", encode_group_params(
        bilinear.GroupParams(p=6787327, q=26513, h=256)))
    with pytest.raises(KeystoreError,
                       match="^bad parameter payload: group parameters are not prime$"):
        keystore.load_group(path)


HEADERS = [f"{keystore.HEADER_MAGIC} kind={kind}\n".encode() for kind in keystore.KINDS]


@pytest.fixture(scope="module")
def entry_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes") / "entry.key"


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=80),
        st.tuples(st.sampled_from(HEADERS), st.binary(max_size=80)).map(b"".join),
    )
)
@example(data=b"\xff")
@example(data=b"idak keystore v1 kind=identity\n\xff\xfe\n")
def test_arbitrary_file_bytes_load_or_fail_typed(entry_path, data):
    entry_path.write_bytes(data)
    for load in (
        *(functools.partial(keystore.read_entry, kind=kind) for kind in keystore.KINDS),
        keystore.load_group,
        lambda path: keystore.load_identity(path, GROUP),
    ):
        try:
            load(entry_path)
        except KeystoreError:
            pass


def test_writes_are_reproducible(tmp_path):
    first = tmp_path / "a.key"
    second = tmp_path / "b.key"
    keystore.save_group(first, GROUP)
    keystore.save_group(second, GROUP)
    assert first.read_bytes() == second.read_bytes()  # no timestamps, no noise


class _FailingFile:
    """A file whose write stores half the data, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("step", ["write", "replace"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, step):
    path = tmp_path / "bob.session"
    keystore.save_session(path, SessionKey(key=bytes(32)))
    before = path.read_bytes()
    if step == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(keystore.os, "fdopen", lambda *a: _FailingFile(fdopen(*a)))
    else:
        def refuse(*_):
            raise OSError("rename refused")

        monkeypatch.setattr(keystore.os, "replace", refuse)
    with pytest.raises(OSError):
        keystore.save_session(path, SessionKey(key=bytes(range(32))))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["bob.session"]


def test_secret_files_are_private_and_params_follow_the_umask(tmp_path):
    own = extract(PARAMS, MSK, "alice")
    x, msg = initiate(PARAMS, own, random.Random(7))
    probe = tmp_path / "probe"
    probe.write_bytes(b"")
    # an existing looser file is replaced, not reused
    (tmp_path / "session.key").write_bytes(b"")
    os.chmod(tmp_path / "session.key", 0o644)
    keystore.save_group(tmp_path / "params.key", GROUP)
    keystore.save_master(tmp_path / "master.key", GROUP, MSK)
    keystore.save_identity(tmp_path / "identity.key", GROUP, own)
    keystore.save_state(tmp_path / "state.key", GROUP, b"bob", x, msg)
    keystore.save_session(tmp_path / "session.key", SessionKey(key=bytes(32)))

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("params.key") == mode("probe")
    for name in ("master.key", "identity.key", "state.key", "session.key"):
        assert mode(name) == 0o600, name


# ---------------------------------------------------------------------------
# kind-specific payloads
# ---------------------------------------------------------------------------


def test_group_round_trip(tmp_path):
    for k_bits, seed in ((4, "0"), (8, "1"), (16, "2")):
        group = instance_generate(k_bits, seed)
        path = tmp_path / f"params-{k_bits}.key"
        keystore.save_group(path, group)
        assert keystore.load_group(path) == group


def test_master_round_trip(tmp_path):
    path = tmp_path / "master.key"
    keystore.save_master(path, GROUP, MSK)
    assert keystore.load_master(path, GROUP) == MSK


def test_master_range_checks(tmp_path):
    path = tmp_path / "master.key"
    with pytest.raises(KeystoreError):
        keystore.save_master(path, GROUP, 0)
    with pytest.raises(KeystoreError):
        keystore.save_master(path, GROUP, GROUP.q)
    keystore.write_entry(path, "master", b"\x00")  # zero, also wrong width
    with pytest.raises(KeystoreError):
        keystore.load_master(path, GROUP)


def test_identity_round_trip(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, key)
    assert keystore.load_identity(path, GROUP) == key


def test_identity_rejects_foreign_parameters(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, key)
    other = instance_generate(8, "someone-else")
    with pytest.raises(KeystoreError):
        keystore.load_identity(path, other)


def test_identity_rejects_trailing_bytes(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, key)
    payload = keystore.read_entry(path, "identity")
    keystore.write_entry(path, "identity", payload + b"\x00")
    with pytest.raises(KeystoreError):
        keystore.load_identity(path, GROUP)


def _identity_entry(path, name, d_id):
    """An identity file naming name, with its true g_id and the given d_id."""
    g_id = hash_to_group(GROUP, name or b"alice")
    payload = sized(name) + encode_point(GROUP, g_id) + encode_point(GROUP, d_id)
    keystore.write_entry(path, "identity", payload)


# (0, 0) lies on y^2 = x^3 + x and has order 2, so outside the odd-order subgroup
@pytest.mark.parametrize("d_id", [GElem(0, 0), INFINITY], ids=["order-two", "infinity"])
def test_identity_rejects_a_key_point_outside_the_subgroup(tmp_path, d_id):
    path = tmp_path / "alice.key"
    _identity_entry(path, b"alice", d_id)
    with pytest.raises(KeystoreError, match="^identity key point is outside the subgroup$"):
        keystore.load_identity(path, GROUP)


def test_identity_rejects_a_payload_naming_nobody(tmp_path):
    path = tmp_path / "nobody.key"
    _identity_entry(path, b"", extract(PARAMS, MSK, "alice").d_id)
    with pytest.raises(KeystoreError, match="^identity payload names nobody$"):
        keystore.load_identity(path, GROUP)


# ---------------------------------------------------------------------------
# a process checks each payload once, and a changed or refused one every time
# ---------------------------------------------------------------------------


def _out_of_subgroup(key):
    """The key with d_id moved to the order-2 point (0, 0)."""
    return IdentityKey(key.identity, key.g_id, GElem(0, 0))


def test_a_key_file_rewritten_after_a_good_load_is_checked_again(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, key)
    assert keystore.load_identity(path, GROUP) == key
    keystore.save_identity(path, GROUP, _out_of_subgroup(key))
    with pytest.raises(KeystoreError, match="^identity key point is outside the subgroup$"):
        keystore.load_identity(path, GROUP)


def test_a_refused_payload_is_refused_on_every_load(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    good, bad = tmp_path / "good.key", tmp_path / "bad.key"
    keystore.save_identity(good, GROUP, key)
    keystore.save_identity(bad, GROUP, _out_of_subgroup(key))
    good_params, bad_params = tmp_path / "good.params", tmp_path / "bad.params"
    keystore.save_group(good_params, GROUP)
    # a cofactor 2 too large breaks p = h*q - 1
    keystore.save_group(bad_params, dataclasses.replace(GROUP, h=GROUP.h + 2))
    for _ in range(2):  # bad, good, bad, good
        with pytest.raises(KeystoreError, match="^identity key point is outside the subgroup$"):
            keystore.load_identity(bad, GROUP)
        with pytest.raises(KeystoreError, match="^bad parameter payload: inconsistent"):
            keystore.load_group(bad_params)
        assert keystore.load_identity(good, GROUP) == key
        assert keystore.load_group(good_params) == GROUP


def test_an_identity_loaded_under_one_group_is_refused_under_another(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, key)
    assert keystore.load_identity(path, GROUP) == key
    other = instance_generate(8, "someone-else")
    with pytest.raises(KeystoreError):
        keystore.load_identity(path, other)
    assert keystore.load_identity(path, GROUP) == key


def test_identical_bytes_are_checked_once_per_process(tmp_path, monkeypatch):
    params, msk = setup(12, "checked-once")
    group, key = params.group, extract(params, msk, "alice")
    group_path, key_path = tmp_path / "params.key", tmp_path / "alice.key"
    keystore.save_group(group_path, group)
    keystore.save_identity(key_path, group, key)
    proved, subgroup_checks = [], []
    is_probable_prime, in_subgroup = bilinear.is_probable_prime, keystore.in_subgroup
    # is_probable_prime proves both q and p
    monkeypatch.setattr(bilinear, "is_probable_prime",
                        lambda n: proved.append(n) or is_probable_prime(n))
    monkeypatch.setattr(keystore, "in_subgroup",
                        lambda *args: subgroup_checks.append(args) or in_subgroup(*args))
    keystore._decoded_group.cache_clear()
    keystore._subgroup_checked.clear()
    # the first load proves p and q and checks d_id; the second, of the
    # same bytes, neither
    for expected in (({group.p, group.q}, 1), (set(), 0)):
        proved.clear()
        subgroup_checks.clear()
        assert keystore.load_group(group_path) == group
        assert keystore.load_identity(key_path, group) == key
        assert (set(proved), len(subgroup_checks)) == expected


def test_a_full_record_of_checked_payloads_is_emptied(tmp_path, monkeypatch):
    # the record holds _SUBGROUP_CHECKED_LIMIT payloads; one more empties
    # it, so a payload loaded before is checked again
    subgroup_checks, in_subgroup = [], keystore.in_subgroup
    monkeypatch.setattr(keystore, "in_subgroup",
                        lambda *args: subgroup_checks.append(args) or in_subgroup(*args))
    keystore._subgroup_checked.clear()
    limit = keystore._SUBGROUP_CHECKED_LIMIT
    keys = [extract(PARAMS, MSK, f"user-{i}") for i in range(limit + 1)]
    path = tmp_path / "user.key"

    def load(key):
        keystore.save_identity(path, GROUP, key)
        assert keystore.load_identity(path, GROUP) == key

    for key in keys[:limit]:
        load(key)
    load(keys[0])
    assert len(subgroup_checks) == limit
    load(keys[limit])
    load(keys[0])
    assert len(subgroup_checks) == limit + 2


def test_a_loaded_identity_key_is_not_kept_after_its_caller_drops_it(tmp_path):
    # only a digest of the checked payload outlives the load, not d_id
    path = tmp_path / "alice.key"
    keystore.save_identity(path, GROUP, extract(PARAMS, MSK, "alice"))
    for _ in range(2):  # the first load checks d_id, the second finds its digest
        key = keystore.load_identity(path, GROUP)
        alive = weakref.ref(key)
        del key
        gc.collect()
        assert alive() is None


def test_session_round_trip(tmp_path):
    path = tmp_path / "session.key"
    key = SessionKey(key=bytes(range(32)))
    keystore.save_session(path, key)
    assert keystore.load_session(path) == key
    with pytest.raises(KeystoreError):
        keystore.save_session(path, SessionKey(key=b"short"))
    keystore.write_entry(path, "session", b"\x00" * 31)
    with pytest.raises(KeystoreError):
        keystore.load_session(path)


def test_state_round_trip(tmp_path):
    rng = random.Random(5)
    own = extract(PARAMS, MSK, "alice")
    x, msg = initiate(PARAMS, own, rng)
    path = tmp_path / "pending.key"
    keystore.save_state(path, GROUP, b"bob", x, msg)
    assert keystore.load_state(path, GROUP) == (b"bob", x, msg)


def test_state_frames_the_identity_bytes_of_any_name(tmp_path):
    own = extract(PARAMS, MSK, "alice")
    x, msg = initiate(PARAMS, own, random.Random(7))
    keystore.save_state(tmp_path / "text.key", GROUP, "bob", x, msg)
    keystore.save_state(tmp_path / "bytes.key", GROUP, b"bob", x, msg)
    assert (tmp_path / "text.key").read_bytes() == (tmp_path / "bytes.key").read_bytes()


def test_key_writers_refuse_a_name_the_identity_rule_refuses(tmp_path):
    key = extract(PARAMS, MSK, "alice")
    _, msg = initiate(PARAMS, key, random.Random(8))
    too_long = b"x" * 0x10000
    hand_built = IdentityKey(too_long, key.g_id, key.d_id)
    with pytest.raises(InvalidIdentityError):
        keystore.save_identity(tmp_path / "long.key", GROUP, hand_built)
    with pytest.raises(InvalidIdentityError):
        keystore.save_state(tmp_path / "long.state", GROUP, too_long, 1, msg)
    with pytest.raises(InvalidIdentityError):
        keystore.save_state(tmp_path / "empty.state", GROUP, "", 1, msg)
    assert not any(tmp_path.iterdir())


def test_state_rejects_bad_scalars(tmp_path):
    own = extract(PARAMS, MSK, "alice")
    _, msg = initiate(PARAMS, own, random.Random(6))
    path = tmp_path / "pending.key"
    with pytest.raises(KeystoreError):
        keystore.save_state(path, GROUP, b"bob", 0, msg)
    with pytest.raises(KeystoreError):
        keystore.save_state(path, GROUP, b"bob", GROUP.q, msg)


def test_fuzzed_round_trips(tmp_path):
    # every value written must re-parse to an equal value
    rng = random.Random(99)
    path = tmp_path / "fuzz.key"
    for i in range(100):
        session = SessionKey(key=rng.randbytes(32))
        keystore.save_session(path, session)
        assert keystore.load_session(path) == session
    for i in range(100):
        key = extract(PARAMS, MSK, f"principal-{rng.randrange(1 << 30)}")
        keystore.save_identity(path, GROUP, key)
        assert keystore.load_identity(path, GROUP) == key


# ---------------------------------------------------------------------------
# hostile payloads: every reader of framed fields and points
# ---------------------------------------------------------------------------


FORMAT_NAMES = ["flow", "flow-extra", "identity", "state", "params"]


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    """name -> (valid blob, decode, encode, the only error decode may raise)."""
    path = tmp_path_factory.mktemp("hostile") / "entry.key"

    def loaded(kind, load):
        def decode(blob):
            keystore.write_entry(path, kind, blob)
            return load(path, GROUP)

        return decode

    def saved(kind, save):
        def encode(*value):
            save(path, GROUP, *value)
            return keystore.read_entry(path, kind)

        return encode

    alice = extract(PARAMS, MSK, "alice")
    _, msg = initiate(PARAMS, alice, random.Random(3))
    extra = hash_to_group(GROUP, "bob")
    save_identity = saved("identity", keystore.save_identity)
    save_state = saved("state", keystore.save_state)
    flow = (
        lambda blob: decode_flow(PARAMS, blob),
        lambda value: encode_flow(PARAMS, *value),
        InvalidFlowError,
    )
    return {
        "flow": (encode_flow(PARAMS, "initiator", b"alice", msg), *flow),
        "flow-extra": (encode_flow(PARAMS, "responder", b"alice", msg, extra), *flow),
        "identity": (
            save_identity(alice),
            loaded("identity", keystore.load_identity),
            save_identity,
            KeystoreError,
        ),
        "state": (
            save_state(b"bob", 5, msg),
            loaded("state", keystore.load_state),
            lambda value: save_state(*value),
            KeystoreError,
        ),
        "params": (
            encode_group_params(GROUP),
            decode_group_params,
            encode_group_params,
            MalformedElementError,
        ),
    }


def _decodes_canonically_or_fails_typed(fmt, data):
    _, decode, encode, error = fmt
    try:
        value = decode(data)
    except error:
        return
    assert encode(value) == data


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_every_prefix_and_byte_change_decodes_or_fails_typed(formats, name):
    blob = formats[name][0]
    variants = [blob[:cut] for cut in range(len(blob))]
    variants += [
        blob[:i] + bytes([value]) + blob[i + 1 :]
        for i in range(len(blob))
        for value in range(256)
        if value != blob[i]
    ]
    for data in variants:
        _decodes_canonically_or_fails_typed(formats[name], data)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(FORMAT_NAMES),
    cut=st.tuples(st.integers(0, 64), st.integers(0, 64)),
    junk=st.binary(max_size=24),
)
def test_spliced_payloads_decode_or_fail_typed(formats, name, cut, junk):
    blob = formats[name][0]
    start, end = sorted(cut)
    _decodes_canonically_or_fails_typed(formats[name], blob[:start] + junk + blob[end:])
