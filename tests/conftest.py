import pytest

from tauforms import builtin_registry, make_context, qseries


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def ctx500():
    return make_context(500)


@pytest.fixture(scope="session")
def ctx120():
    return make_context(120)


@pytest.fixture
def decimal_route_widths(monkeypatch):
    """Slot widths of every product that takes the decimal route, in order."""
    widths = []
    real = qseries._packed_sum

    def spy(terms, n, offset, base, width):
        if base == 10:
            widths.append(width)
        return real(terms, n, offset, base, width)

    monkeypatch.setattr(qseries, "_packed_sum", spy)
    return widths
