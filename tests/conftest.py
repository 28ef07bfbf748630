"""Suite-wide test configuration.

Every Hypothesis property test runs under one profile: derandomized, so each
run draws the same examples and a failure reproduces; no per-example
deadline, since an example's estimators index their worlds when built; and a
bounded example count, so the suite's time stays bounded.
"""

from hypothesis import settings

settings.register_profile("ebmax", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ebmax")
