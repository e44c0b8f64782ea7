"""Repo-wide pytest options."""

import os


def pytest_configure(config):
    # Strict stall accounting (repro.sim.results.strict_stalls): a stall
    # reason without a Fig 15 bucket raises instead of landing in
    # "other".
    os.environ.setdefault("REPRO_STRICT_STALLS", "1")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/golden/ (oracle "
             "conformance snapshots, model-checking certificates and the "
             "timing matrix) from the current code instead of asserting "
             "against them",
    )
