import importlib
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture(scope="session")
def cf():
    mod = importlib.import_module("crossflux")
    importlib.import_module("crossflux.cli")
    return mod
