import shutil
import tempfile

import pytest
from hypothesis import configuration

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches the constants of local modules under its home
    # directory at collection time, even without an example database;
    # keep that cache out of the source tree.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    configuration.set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
