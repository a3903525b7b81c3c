"""Hypothesis settings for the whole suite: every @given test draws the same
examples on every run, and no example database is kept.  Hypothesis also
caches the constants it reads from the code under test; that cache goes to a
temporary directory removed at exit, so a run leaves no .hypothesis/ behind."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("dgb", derandomize=True, database=None)
settings.load_profile("dgb")

_home = tempfile.mkdtemp(prefix="dgb-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)
