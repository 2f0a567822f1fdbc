import importlib
import pkgutil

import pytest

import hpcert
from hpcert import Precision, quadrature

# Every process-lifetime functools cache in hpcert, by module and name.  The
# `cold_caches` fixture checks that this is the set it finds, so a cache added
# later must be named here, and so cleared, before any test passes.
CACHES = {
    "numeric.constant_value",
    "numeric.fixed_context",  # each width's context, and with it its own memos
    "numeric._log_band",  # the Taylor steps' points, once per band of 64 precisions, each shifted where it is read
    "numeric._atan_band",
    "quadrature._ts_abscissae",
    "quadrature._ts_fixed_nodes",
    "quadrature._ts_ln_q_column",  # each level's ln q and ln(1 + q), the part no domain changes
    "quadrature._ts_ln_x_nodes",  # each abscissa with its ln x and ln(b - x), per domain
    "quadrature._gl_halfline",
    "series.harmonic_tail_fraction",
}


def hpcert_caches():
    """Each functools cache held by an attribute of an hpcert module or class, by module and name."""
    found = {}
    for info in pkgutil.iter_modules(hpcert.__path__):
        module = importlib.import_module(f"hpcert.{info.name}")
        values = list(vars(module).values())
        values += [v for c in values if isinstance(c, type) and c.__module__ == module.__name__ for v in vars(c).values()]
        for value in values:
            fn = getattr(value, "__func__", value)  # a staticmethod's function
            if callable(getattr(fn, "cache_clear", None)):
                found[f"{fn.__module__.removeprefix('hpcert.')}.{fn.__qualname__}"] = fn
    return found


@pytest.fixture
def cold_caches(monkeypatch):
    """A test run on cold caches: an empty tanh-sinh table dict and every functools cache cleared.

    The caches are cleared again afterwards, so that none keeps values derived
    from the table this test built and the restored table never had.
    """
    caches = hpcert_caches()
    assert set(caches) == CACHES
    monkeypatch.setattr(quadrature, "_TS_TABLES", {})
    for fn in caches.values():
        fn.cache_clear()
    yield
    for fn in caches.values():
        fn.cache_clear()


@pytest.fixture(scope="session")
def p64():
    return Precision(64)


@pytest.fixture(scope="session")
def p128():
    return Precision(128)


@pytest.fixture(scope="session")
def p256():
    return Precision(256)
