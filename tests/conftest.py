"""Shared test settings: exact arithmetic has no fixed cost per example, so
Hypothesis runs every property without a per-example deadline."""

from hypothesis import settings

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
