from __future__ import annotations

import pytest
from hypothesis import settings

from hermgrs import puncture
from hermgrs.field import make_field

# Tier-1 runs the same examples every time and writes no example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ctx2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def ctx3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def ctx4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def ctx5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def ctx7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def ctx8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def ctx9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def small_grid():
    """(ctx, k) cells for q in {2,3,4,5} and 1 <= k <= q."""
    cells = []
    for p, h in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = make_field(p, h)
        for k in range(1, ctx.q + 1):
            cells.append((ctx, k))
    return cells


@pytest.fixture
def basis_builds(monkeypatch):
    """(route, k) of every P(C) basis built during the test, through either route."""
    calls = []
    for name in ("puncture_direct", "u_space_basis"):
        build = getattr(puncture, name)

        def counted(ctx, k, *args, _name=name, _build=build, **kwargs):
            calls.append((_name, k))
            return _build(ctx, k, *args, **kwargs)

        monkeypatch.setattr(puncture, name, counted)
    return calls
