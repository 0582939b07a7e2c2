"""Settings shared by every test module.

Property tests run under one hypothesis profile: examples are drawn from
a fixed seed (derandomize), no example database is written, there is no
per-example deadline, and the example count is capped, so the suite
gives the same result on every run and stays fast.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ottosim", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("ottosim")
