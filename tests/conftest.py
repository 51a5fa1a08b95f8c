import pytest

from foamalg import frobalg


@pytest.fixture
def inverse_calls(monkeypatch):
    """The argument tuples of the `frobalg.unimodular_inverse` calls made
    while the test runs; each call still runs."""
    inverse, calls = frobalg.unimodular_inverse, []

    def counted(*args):
        calls.append(args)
        return inverse(*args)

    monkeypatch.setattr(frobalg, "unimodular_inverse", counted)
    return calls
