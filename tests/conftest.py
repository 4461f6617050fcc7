"""Hypothesis profiles for the property suites.

``ci`` (the default) is derandomized and keeps no example database, so a
test run is reproducible: the same code explores the same examples on every
machine.  ``nightly`` is randomized and selected only with
``--hypothesis-profile=nightly``; it draws one seed for the whole run,
prints it in the session header, and a failure is replayed with
``--hypothesis-profile=nightly --hypothesis-seed=<seed>``.
"""

import random

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("nightly", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile("ci")


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Runs before the Hypothesis plugin reads --hypothesis-seed, so the
    # drawn seed is applied exactly as if it had been passed.
    if (config.getoption("--hypothesis-profile") == "nightly"
            and config.getoption("--hypothesis-seed") is None):
        config.option.hypothesis_seed = str(random.SystemRandom().getrandbits(32))


def pytest_report_header(config):
    if config.getoption("--hypothesis-profile") == "nightly":
        return f"hypothesis nightly seed: {config.getoption('--hypothesis-seed')}"
    return None
