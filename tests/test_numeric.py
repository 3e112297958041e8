import math

import pytest
from scipy import integrate

from cyclictuples.numeric import adaptive_simpson, bisect_root, golden_max, integrate_piecewise


def test_adaptive_simpson_polynomial_exact():
    assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_adaptive_simpson_vs_scipy():
    f = lambda x: math.exp(-x) * math.sin(7 * x) + math.log1p(x)
    ours = adaptive_simpson(f, 0.0, 2.0)
    ref, _ = integrate.quad(f, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    assert ours == pytest.approx(ref, abs=1e-10)


def test_integrate_piecewise_splits_at_kinks():
    f = lambda x: abs(x - 0.3)
    # exact: 0.09/2 + 0.49/2
    assert integrate_piecewise(f, [0.0, 0.3, 1.0]) == pytest.approx(0.29, abs=1e-12)


def test_integrate_piecewise_edges():
    f = lambda x: 1.0 + x
    assert integrate_piecewise(f, [0.4]) == 0.0  # one point: no piece
    whole = integrate_piecewise(f, [0.0, 0.3, 1.0])
    assert integrate_piecewise(f, [0.0, 0.3, 1.0, 1.0]) == whole  # zero-length last piece
    assert integrate_piecewise(f, [0.0, 0.3]) == adaptive_simpson(f, 0.0, 0.3)


def test_bisect_root():
    r = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-11)
    with pytest.raises(ValueError):
        bisect_root(lambda x: 1.0, 0.0, 1.0)


def test_golden_max_interior_and_endpoint():
    x, v = golden_max(lambda u: -(u - 0.3) ** 2, 0.0, 1.0, xtol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-9) and v == pytest.approx(0.0, abs=1e-15)
    x, _ = golden_max(lambda u: u, 0.0, 1.0, xtol=1e-12)  # monotone: best endpoint
    assert x == pytest.approx(1.0, abs=1e-9)
