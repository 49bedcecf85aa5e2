"""Hypothesis settings for the test suite: every default stays, except that a
failing example is also printed as a ``@reproduce_failure`` blob, which
replays it exactly where the shrunk example does not."""

from hypothesis import settings

settings.register_profile("pcrank", print_blob=True)
settings.load_profile("pcrank")
