"""Identity-based authenticated key agreement over a toy symmetric pairing.

Everything here is research code built on small, brute-forceable curves.
It exists to study the protocol and its security game, not to protect data.
"""

__version__ = "0.1.0"
