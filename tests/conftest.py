import pytest

from tauforms import builtin_registry, forms, make_context, qseries


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def ctx500():
    return make_context(500)


@pytest.fixture(scope="session")
def ctx120():
    return make_context(120)


def _route_widths(monkeypatch, base):
    widths = []
    real = qseries._packed_sum

    def spy(terms, n, offset, route, width):
        if route == base:
            widths.append(width)
        return real(terms, n, offset, route, width)

    monkeypatch.setattr(qseries, "_packed_sum", spy)
    return widths


@pytest.fixture
def without_gmp(monkeypatch):
    """The kernel as on a host where libgmp does not load: its loader finds
    nothing, so large sums take the decimal route and CPython's `int` does
    every byte-route product."""
    monkeypatch.setattr(qseries, "_gmp", lambda: None)


@pytest.fixture
def with_gmp():
    """libgmp's functions; the test is skipped where it does not load."""
    gmp = qseries._gmp()
    if gmp is None:
        pytest.skip("libgmp does not load on this host")
    return gmp


@pytest.fixture
def decimal_route_widths(monkeypatch, without_gmp):
    """Slot widths of every product that takes the decimal route, in order,
    on a host without libgmp (with it, no product takes that route)."""
    return _route_widths(monkeypatch, 10)


@pytest.fixture
def byte_route_widths(monkeypatch):
    """Slot widths, in bytes, of every product that takes the byte route."""
    return _route_widths(monkeypatch, 256)


@pytest.fixture
def bend_sigma5(monkeypatch):
    """bend_sigma5(n): from an empty store on, forms.sigma_table reads
    sigma5(n) + 1 in place of sigma5(n)."""
    real = forms.sigma_table

    def bend(n):
        def bent(k, limit):
            table = real(k, limit)
            if k != 5:
                return table
            values = list(table.values)
            values[n] += 1
            return forms.SigmaTable(k, tuple(values))

        monkeypatch.setattr(forms, "sigma_table", bent)
        monkeypatch.setattr(forms, "_STORE", {})

    return bend
