"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with no per-example deadline, a fixed
number of examples and no example database on disk.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "presburger", derandomize=True, deadline=None, max_examples=100,
        database=None)
    settings.load_profile("presburger")
