import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_search_thread_left():
    """Fails a test after which a search pool's thread is still alive."""
    yield
    search = sys.modules.get("parikhgrid.search")
    if search is not None:
        left = [t.name for t in threading.enumerate()
                if t.name.startswith(search.THREAD_PREFIX)]
        assert left == [], "search threads left running: %s" % left
