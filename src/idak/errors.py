"""Exception hierarchy shared across the package."""


class IdakError(Exception):
    """Base class for all errors raised by this package."""


class ParameterSearchError(IdakError):
    """Parameter search exhausted its candidate budget."""


class HashToGroupError(IdakError):
    """No curve point found for an identity within the counter budget."""


class MalformedElementError(IdakError):
    """A group or field element failed structural validation."""


class InvalidIdentityError(IdakError):
    """An identity string is empty or otherwise unusable."""


class InvalidEphemeralError(IdakError):
    """An ephemeral exponent is outside the valid scalar range."""


class InvalidFlowError(IdakError):
    """A received protocol flow failed validation."""


class DegenerateExponentError(IdakError):
    """A combined exponent vanished mod q, which would force a trivial key."""


class StaleOracleError(IdakError):
    """A session oracle was activated after completing or aborting."""


class NoKeyError(IdakError):
    """Reveal was asked of an oracle that holds no session key."""


class NoFlowError(IdakError):
    """A scenario referred to the flow of an oracle that emitted none."""


class NoSuchPrincipalError(IdakError):
    """A query referenced a principal the world does not know."""


class NotTestableError(IdakError):
    """Freshness was asked of an oracle that has not completed."""


class TestRefusedError(IdakError):
    """Test was asked of an oracle that is not fresh."""

    __test__ = False  # keep pytest from collecting this as a test class


class KeystoreError(IdakError):
    """A key file failed to parse or carried the wrong kind."""


class ScenarioError(IdakError):
    """A scenario file is malformed or one of its assertions failed."""
