"""Hypothesis runs derandomized, so every tier-1 run draws the same
examples and reports the same result."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")
