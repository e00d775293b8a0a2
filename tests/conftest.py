"""Session fixtures.

The heavyweight end-to-end runs (lantern, Haar GRIN, toy sorter, fanout
curves) are computed once per session and shared between the module
tests and the acceptance tests; each takes tens of seconds to minutes.
Their reference numbers live in tests/fixtures/baselines.json, written
by scripts/make_baselines.py.
"""

import json
import os

import pytest

from ove.experiments import canned_config, optimized_curve, run_design, superposed_curve

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def baselines() -> dict:
    with open(os.path.join(FIXTURES_DIR, "baselines.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def lantern_result():
    return run_design(canned_config("lantern"))


@pytest.fixture(scope="session")
def haar_result():
    return run_design(canned_config("haar-grin"))


@pytest.fixture(scope="session")
def toy_result():
    return run_design(canned_config("toy-sorter"))


@pytest.fixture(scope="session")
def superposed_result():
    return superposed_curve([1, 2, 4, 8], dn_budget=0.005)


@pytest.fixture(scope="session")
def optimized_result():
    curve, runs = optimized_curve([1, 2, 4], dn_budget=0.05)
    return curve, runs
