"""Suite-wide test configuration.

Every Hypothesis property test runs under one profile: derandomized, so each
run draws the same examples and a failure reproduces; no per-example
deadline, since an example's estimators index their worlds when built; and a
bounded example count, so the suite's time stays bounded.

`EBMAX_HYPOTHESIS_PROFILE=ebmax-deep` selects the same settings with ten
times the examples, for a deeper run of chosen test files.
"""

import os

from hypothesis import settings

settings.register_profile("ebmax", derandomize=True, deadline=None, max_examples=100)
settings.register_profile("ebmax-deep", derandomize=True, deadline=None, max_examples=1000)
settings.load_profile(os.environ.get("EBMAX_HYPOTHESIS_PROFILE", "ebmax"))
