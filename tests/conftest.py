import numpy as np
import pytest
from hypothesis import settings

from tensorspectra.fuss_catalan import gl_panels

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def reference_panels(func, edges, order):
    """The Gauss-Legendre rule one panel at a time, each on a 1-d array of
    nodes: the loop gl_panels replaced, kept as its bitwise reference."""
    x, wts = np.polynomial.legendre.leggauss(order)
    values = []
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        mid, half = (a + b) / 2, (b - a) / 2
        values.append(half * np.sum(wts * func(mid + half * x)))
    return values


@pytest.fixture
def checked_gl_panels(monkeypatch):
    """install(module) replaces module.gl_panels with a wrapper that asserts
    each call equals reference_panels bit for bit; it returns the list that
    collects each call's reference values."""

    def install(module):
        calls = []

        def checked(func, edges, order):
            got = gl_panels(func, edges, order)
            ref = np.array(reference_panels(func, edges, order))
            assert got.tobytes() == ref.tobytes()
            calls.append(ref)
            return got

        monkeypatch.setattr(module, "gl_panels", checked)
        return calls

    return install
