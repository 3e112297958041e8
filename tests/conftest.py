import pytest

from cyclictuples import symbolic


@pytest.fixture(autouse=True)
def _programs_traced_per_test():
    """A traced program keeps what its predicates computed when it was
    traced, a monkeypatched module value included: drop every program after
    each test, so that no test counts with another test's patch."""
    yield
    symbolic.trace.cache_clear()
