"""Hypothesis profiles for the suite.

`HYPOTHESIS_PROFILE=derandomized pytest` derives every example from the test
itself instead of a fresh random seed, so two runs draw the same inputs.
Pytest imports this file before the test modules, so the per-test
`@settings(...)` decorators build on the loaded profile.
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)

if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
