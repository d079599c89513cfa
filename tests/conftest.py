"""Shared test settings: exact arithmetic has no fixed cost per example, so
Hypothesis runs every property without a per-example deadline.  CI keeps no
example database between runs, so a failing property prints the
``@reproduce_failure`` blob that replays it.

``pytest --hypothesis-profile=mutants`` runs the same properties for a
mutation check: the examples are the same on every run (derandomized) and
a failing property reports its first failing example unshrunk, since on a
broken kernel shrinking alone can take minutes."""

from hypothesis import Phase, settings

settings.register_profile("exact", deadline=None, print_blob=True)
settings.register_profile("mutants", settings.get_profile("exact"), derandomize=True,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("exact")
