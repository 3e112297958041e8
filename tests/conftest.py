import pytest

from cyclictuples import rng, symbolic


@pytest.fixture(autouse=True)
def _programs_traced_per_test():
    """A traced program keeps what its predicates computed when it was
    traced, a monkeypatched module value included: drop every program after
    each test, so that no test counts with another test's patch."""
    yield
    symbolic.trace.cache_clear()


@pytest.fixture
def record_words(monkeypatch):
    """The word count of every ``rng.uniform_words`` call in the test."""
    words = []
    draw = rng.uniform_words

    def recording(seed, start, count, dim=None, **kwargs):
        words.append(count)
        return draw(seed, start, count, dim, **kwargs)

    monkeypatch.setattr(rng, "uniform_words", recording)
    return words
