import concurrent.futures

import pytest

from wreathchar import wreath_chars


@pytest.fixture
def pool_requests(monkeypatch):
    """A fake process pool on a machine with 8 CPUs: the returned list
    receives each pool's max_workers and then its chunksize, the work runs
    in this process, and no process is started."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            asked.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(wreath_chars.os, "cpu_count", lambda: 8)
    return asked
