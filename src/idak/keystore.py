"""Hex-armored key files with a one-line header.

Every file is two lines: a header naming the entry kind, then the
payload in hex.  Payloads reuse the binary encodings of the underlying
values, so a file round-trips exactly and two runs with the same seed
produce byte-identical files.

A process decodes and checks each distinct params payload once:
load_group keeps its results in a bounded cache keyed by the payload
bytes, which are public.  load_identity decodes its payload on every
call, but runs the subgroup check of d_id, one Tate pairing of order h
(bilinear._in_group, whose docstring lists the callers that have tested
the curve already), once per group and payload: it remembers only
the SHA-256 digest of each payload that passed, not the key.  The memo
pays although the check is short: a hit costs one SHA-256 of the payload
and a set lookup, where a check costs a Miller loop and a Lucas ladder
over q, and an initiate, respond and finalize exchange loads three
identity files, so a process that runs exchanges in a loop checks each
file once, not on every load.  A process that derives with the key
keeps it all the same: protocol.derive fills bilinear's bounded
caches of d_id's window table (choice 1) or line table (choice 2), both
keyed by d_id, and they hold it until evicted or the process ends.
Both loaders read the file on every call, so a file whose bytes change
is checked again in full.
This is safe because a result is a pure function of those bytes (and
the group's values), and because a payload that fails raises before it
is remembered, so a refused file is refused again on every load.
"""

import functools
import hashlib
import io
import os

from idak.bilinear import (
    GroupParams,
    _in_group,
    decode_group_params,
    encode_group_params,
    encode_point,
    hash_to_group,
    identity_bytes,
    sized,
    take_point,
    take_sized,
)
from idak.errors import KeystoreError, MalformedElementError
from idak.protocol import FlowMessage, IdentityKey, SessionKey

HEADER_MAGIC = "idak keystore v1"
KINDS = ("params", "master", "identity", "session", "state")
# the exact header write_entry writes for each kind; read_entry takes no other
_HEADER_KINDS = {f"{HEADER_MAGIC} kind={kind}": kind for kind in KINDS}
SESSION_KEY_SIZE = 32
# The most bytes taken from one key, flow or scenario file.  The largest
# legitimate file, an identity key with a 65535-byte identity at k = 512,
# is about 132 KB.  A read stops one byte past the bound, so a larger file,
# or /dev/zero, is refused without being held in memory.
_MAX_FILE_BYTES = 256 * 1024


def _read_bounded(handle, error, what):
    """The bytes left in handle, or error(f"{what} is larger than ...") if
    they are more than _MAX_FILE_BYTES.

    A first read of one buffer's worth holds a key or flow file whole, so
    the common small file costs no 256 KiB allocation.
    """
    data = handle.read(io.DEFAULT_BUFFER_SIZE)
    if len(data) == io.DEFAULT_BUFFER_SIZE:
        data += handle.read(_MAX_FILE_BYTES + 1 - len(data))
    if len(data) > _MAX_FILE_BYTES:
        raise error(f"{what} is larger than {_MAX_FILE_BYTES} bytes")
    return data


def write_entry(path, kind, payload):
    """Store one armored entry, replacing whatever the path held.

    The entry is written to a fresh file beside the target, which then
    replaces the target in one rename, so a write that fails midway leaves
    the old file as it was.  Every kind but params holds a secret or a
    session and is created with mode 0600; params files get the mode the
    umask gives.
    """
    if kind not in KINDS:
        raise KeystoreError(f"unknown entry kind {kind!r}")
    data = f"{HEADER_MAGIC} kind={kind}\n{payload.hex()}\n".encode("ascii")
    path = os.fspath(path)
    temp = f"{path}.{os.urandom(6).hex()}.tmp"
    mode = 0o666 if kind == "params" else 0o600
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def read_entry(path, kind):
    """The payload of the armored entry at path, which must be of kind."""
    with open(path, "rb") as handle:
        data = _read_bounded(handle, KeystoreError, "key file")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise KeystoreError("key file is not ASCII text") from exc
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if len(lines) != 2:
        raise KeystoreError("key file must be a header line plus a payload line")
    header, armored = lines
    found = _HEADER_KINDS.get(header)
    if found is None:
        raise KeystoreError(f"header is not '{HEADER_MAGIC} kind=KIND' for a known KIND")
    if found != kind:
        raise KeystoreError(f"expected a {kind} entry, found {found}")
    try:
        payload = bytes.fromhex(armored)
    except ValueError as exc:
        raise KeystoreError("payload is not valid hex") from exc
    return payload


# ---------------------------------------------------------------------------
# kind-specific payloads
# ---------------------------------------------------------------------------


def save_group(path, group):
    write_entry(path, "params", encode_group_params(group))


def load_group(path) -> GroupParams:
    payload = read_entry(path, "params")
    return _decoded_group(payload)


@functools.lru_cache(maxsize=32)
def _decoded_group(payload):
    try:
        return decode_group_params(payload)
    except MalformedElementError as exc:
        raise KeystoreError(f"bad parameter payload: {exc}") from exc


def save_master(path, group, alpha):
    if not 1 <= alpha < group.q:
        raise KeystoreError("master secret out of range")
    write_entry(path, "master", alpha.to_bytes(_scalar_size(group), "big"))


def load_master(path, group) -> int:
    """The master secret alpha, checked only to fit group: a payload of the
    group's scalar width holding 1 <= alpha < q.

    A master file names no group, so nothing binds it to the params it
    was set up with: under another group's params of the same scalar
    width, idak extract accepts it whenever alpha < q, exits 0 and
    writes a key under a group the master was never set up for.  Binding
    the two changes the master payload, so it waits for a v2 file format.
    """
    payload = read_entry(path, "master")
    alpha = int.from_bytes(payload, "big")
    if len(payload) != _scalar_size(group) or not 1 <= alpha < group.q:
        raise KeystoreError("master secret does not fit the parameters")
    return alpha


def save_identity(path, group, key):
    body = (
        sized(identity_bytes(key.identity))
        + encode_point(group, key.g_id)
        + encode_point(group, key.d_id)
    )
    write_entry(path, "identity", body)


def load_identity(path, group) -> IdentityKey:
    payload = read_entry(path, "identity")
    try:
        ident, offset = take_sized(payload, 0)
        g_id, offset = take_point(group, payload, offset)
        d_id, offset = take_point(group, payload, offset)
    except MalformedElementError as exc:
        raise KeystoreError(f"bad identity payload: {exc}") from exc
    if offset != len(payload):
        raise KeystoreError("identity payload has trailing bytes")
    if not ident:
        raise KeystoreError("identity payload names nobody")
    if g_id != hash_to_group(group, ident):
        raise KeystoreError("identity key does not belong to these parameters")
    if d_id.is_identity() or not _in_subgroup_once(group, payload, d_id):
        raise KeystoreError("identity key point is outside the subgroup")
    return IdentityKey(identity=ident, g_id=g_id, d_id=d_id)


# (group, SHA-256 of the payload) of identity payloads whose d_id passed
# the subgroup check; emptied when it reaches _SUBGROUP_CHECKED_LIMIT
_subgroup_checked = set()
_SUBGROUP_CHECKED_LIMIT = 256


def _in_subgroup_once(group, payload, d_id):
    """_in_group(group, d_id) for the d_id decoded from payload, computed
    once per group and payload; take_point has tested d_id for the curve
    and load_identity for the identity."""
    seen = (group, hashlib.sha256(payload).digest())
    if seen in _subgroup_checked:
        return True
    if not _in_group(group, d_id):
        return False
    if len(_subgroup_checked) >= _SUBGROUP_CHECKED_LIMIT:
        _subgroup_checked.clear()
    _subgroup_checked.add(seen)
    return True


def save_session(path, key):
    if len(key.key) != SESSION_KEY_SIZE:
        raise KeystoreError("session keys are 32 bytes")
    write_entry(path, "session", key.key)


def load_session(path) -> SessionKey:
    payload = read_entry(path, "session")
    if len(payload) != SESSION_KEY_SIZE:
        raise KeystoreError("session keys are 32 bytes")
    return SessionKey(key=payload)


def save_state(path, group, peer_id, x, msg):
    """Persist the initiator's half-open session; peer_id is framed as its identity_bytes."""
    if not 1 <= x < group.q:
        raise KeystoreError("ephemeral out of range")
    body = (
        sized(identity_bytes(peer_id))
        + x.to_bytes(_scalar_size(group), "big")
        + encode_point(group, msg.r)
    )
    write_entry(path, "state", body)


def load_state(path, group):
    payload = read_entry(path, "state")
    try:
        peer_id, offset = take_sized(payload, 0)
        size = _scalar_size(group)
        x = int.from_bytes(payload[offset : offset + size], "big")
        r, end = take_point(group, payload, offset + size)
    except MalformedElementError as exc:
        raise KeystoreError(f"bad state payload: {exc}") from exc
    if end != len(payload) or not peer_id or not 1 <= x < group.q:
        raise KeystoreError("state payload is inconsistent")
    return peer_id, x, FlowMessage(r=r)


# ---------------------------------------------------------------------------
# payload sizes
# ---------------------------------------------------------------------------


def _scalar_size(group):
    return (group.q.bit_length() + 7) // 8

