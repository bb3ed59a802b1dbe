"""Hypothesis draws the same examples on every run: a property that fails
once fails again from a fresh checkout, with no example database to
replay it.  Each test's own ``max_examples`` and ``deadline`` still
apply over this profile."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
