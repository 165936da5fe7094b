"""Hypothesis profiles for the test suite.

A property test that leaves its example count to the profile runs at
hypothesis' default of 100 examples.  `--hypothesis-profile=ci` raises that
to 300.  CI's tier-1 step runs the whole suite at it, and so does
`python tests/mutants.py` for the tests each mutant names:

    python -m pytest -q --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=300)
