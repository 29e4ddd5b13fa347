"""Shared fixtures for the repro test suite.

Fixture *source* lives in ``tests/_fixtures.py`` and is shared with
``benchmarks/conftest.py``, so tests and benchmarks can never diverge on
population/chain input data; this file only adapts it to pytest.
"""

import pytest
from hypothesis import settings

from tests._fixtures import (
    make_items as _make_items,
    make_paper_params,
    make_rng,
    reduced_population_config,
    shared_population,
)

make_items = _make_items  # re-export (historical helper import site)

# Hypothesis profiles.  "ci" (the default) derandomizes every property
# test and keeps no example database, so a run's outcome never depends
# on the Hypothesis seed or on examples saved by earlier runs; "explore"
# draws fresh random examples (``pytest --hypothesis-profile=explore``)
# and prints a ``@reproduce_failure`` blob for any failure, so a failing
# draw replays without the example database of the run that found it.
# Neither changes any test's example budget.
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("ci")


def pytest_configure(config):
    # This module may be imported after Hypothesis's plugin applied the
    # ``--hypothesis-profile`` option; re-apply the option so the command
    # line wins over the default loaded above.
    profile = config.getoption("hypothesis_profile", None)
    if profile:
        settings.load_profile(profile)


@pytest.fixture
def rng():
    """Deterministic RNG; tests must not depend on global random state."""
    return make_rng()


@pytest.fixture
def items_245(rng):
    """The paper's working-set size: 245 distinct ICA identifiers."""
    return make_items(rng, 245)


@pytest.fixture
def paper_params():
    """Canonical (wire-quantized) params matching §5.3: 245 ICAs,
    0.1% FPP, 0.9 load factor."""
    return make_paper_params()


@pytest.fixture(scope="session")
def reduced_population():
    """The small shared PKI the cohort tests (and the cohort benchmark's
    equivalence smoke) run against; memoized process-wide."""
    return shared_population(reduced_population_config())
