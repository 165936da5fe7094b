"""The one identity rule: what bilinear.identity_bytes accepts, every caller accepts."""

import random

import pytest

from idak.bilinear import hash_to_group, identity_bytes, pairing
from idak.errors import InvalidIdentityError
from idak.protocol import SharedSecret, encode_flow, extract, initiate, session_key, setup

PARAMS, MSK = setup(8, "identity-rule")
GROUP = PARAMS.group
ALICE = extract(PARAMS, MSK, "alice")
_, MSG = initiate(PARAMS, ALICE, random.Random(1))
SECRET = SharedSecret(pairing(GROUP, PARAMS.g, PARAMS.g))

# none is an identity: an int or a list is neither text nor bytes (bytes()
# would read 3 as b"\0\0\0" and [97] as b"a"), an empty name names nobody,
# 0x10000 bytes overflow a 2-byte frame, and a lone surrogate, which is how a
# non-UTF-8 argv byte reaches Python, has no UTF-8 encoding
BAD_IDENTITIES = [3, [97], "", b"", b"x" * 0x10000, "\udcff"]

USES = {
    "identity_bytes": identity_bytes,
    "hash_to_group": lambda ident: hash_to_group(GROUP, ident),
    "extract": lambda ident: extract(PARAMS, MSK, ident),
    "session_key-a": lambda ident: session_key(PARAMS, SECRET, ident, "bob", MSG, MSG),
    "session_key-b": lambda ident: session_key(PARAMS, SECRET, "alice", ident, MSG, MSG),
    "encode_flow": lambda ident: encode_flow(PARAMS, "initiator", ident, MSG),
}


@pytest.mark.parametrize("use", USES.values(), ids=USES.keys())
@pytest.mark.parametrize("ident", BAD_IDENTITIES, ids=["int", "list", "empty-str", "empty-bytes",
                                                      "0x10000-bytes", "surrogate"])
def test_every_use_refuses_what_the_rule_refuses(use, ident):
    with pytest.raises(InvalidIdentityError):
        use(ident)


def test_text_and_bytes_stand_for_their_bytes():
    assert identity_bytes("alice") == identity_bytes(b"alice") == b"alice"
    assert identity_bytes(bytearray(b"alice")) == b"alice"
    assert type(identity_bytes(bytearray(b"alice"))) is bytes
    assert identity_bytes("hé") == b"h\xc3\xa9"
    # the longest identity is the longest field a 2-byte frame holds
    assert identity_bytes(b"x" * 0xFFFF) == b"x" * 0xFFFF
    assert extract(PARAMS, MSK, bytearray(b"alice")) == ALICE
