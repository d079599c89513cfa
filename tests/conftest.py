"""Shared test settings: exact arithmetic has no fixed cost per example, so
Hypothesis runs every property without a per-example deadline.  CI keeps no
example database between runs, so a failing property prints the
``@reproduce_failure`` blob that replays it."""

from hypothesis import settings

settings.register_profile("exact", deadline=None, print_blob=True)
settings.load_profile("exact")
