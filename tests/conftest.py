"""Hypothesis profiles for the tier-1 suite.

``--hypothesis-profile=no-database`` runs with no example database, so a run
neither replays nor saves the examples kept in ``.hypothesis/``: every test
draws as it would in a fresh checkout. ``tests/mutants.py`` runs the suite so.
"""

from hypothesis import settings

settings.register_profile("no-database", database=None)
