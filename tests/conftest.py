"""Repo-wide pytest options and fixtures."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _scratch_run_db(tmp_path_factory):
    """Point the default run database at a scratch file: ``repro audit``,
    ``repro chaos`` and ``repro experiment`` run in-process (and the CLI
    subprocesses, which inherit the environment) append rows to it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_RUNDB_PATH",
                  str(tmp_path_factory.mktemp("rundb") / "runs.db"))
        yield


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
