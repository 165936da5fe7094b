"""Hypothesis profiles for the test suite.

A property test that leaves its example count to the profile runs at
hypothesis' default of 100 examples.  `--hypothesis-profile=ci` raises that
to 300, for a CI step that runs such a test on its own:

    python -m pytest -q --hypothesis-profile=ci tests/test_sessions.py -k trusts_its
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=300)
