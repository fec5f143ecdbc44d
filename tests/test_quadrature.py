import math

import numpy as np
import pytest

from flaglets.quadrature import MAX_NODES, gauss_laguerre_gen, gauss_legendre

from oracles import laguerre_rule_from_moments


class TestGaussLegendre:
    def test_n1_analytic(self):
        rule = gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_n2_analytic(self):
        rule = gauss_legendre(2)
        np.testing.assert_allclose(
            rule.nodes, [-0.5773502691896258, 0.5773502691896258], atol=1e-15
        )
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_n3_analytic(self):
        rule = gauss_legendre(3)
        root = math.sqrt(3.0 / 5.0)
        np.testing.assert_allclose(rule.nodes, [-root, 0.0, root], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256, 1000])
    def test_invariants(self, n):
        rule = gauss_legendre(n)
        assert np.all(np.isfinite(rule.nodes))
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1 and rule.nodes[-1] < 1
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 288, 513])
    def test_nodes_exactly_symmetric(self, n):
        # the sphere transform recurs on x >= 0 only and mirrors the other half
        nodes = gauss_legendre(n).nodes
        assert np.array_equal(nodes, -nodes[::-1])
        if n % 2:
            assert nodes[n // 2] == 0.0

    @pytest.mark.parametrize("n", [0, MAX_NODES + 1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            gauss_legendre(n)

    def test_deterministic(self):
        a, b = gauss_legendre(97), gauss_legendre(97)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


class TestGaussLaguerre:
    def test_n1_alpha2_analytic(self):
        rule = gauss_laguerre_gen(1, 2)
        np.testing.assert_allclose(rule.nodes, [3.0], rtol=1e-14)
        raw = rule.weights * np.exp(-rule.nodes)
        np.testing.assert_allclose(raw, [2.0], rtol=1e-13)
        np.testing.assert_allclose(rule.weights, [2.0 * math.e**3], rtol=1e-13)

    def test_n2_alpha2_against_moment_oracle(self):
        nodes, weights = laguerre_rule_from_moments()
        rule = gauss_laguerre_gen(2, 2)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-12)
        np.testing.assert_allclose(rule.weights * np.exp(-rule.nodes), weights, rtol=1e-12)
        # the oracle itself should have produced [2, 6] / [1.5, 0.5]
        np.testing.assert_allclose(nodes, [2.0, 6.0], rtol=1e-12)
        np.testing.assert_allclose(weights, [1.5, 0.5], rtol=1e-12)

    def test_n16_moments_to_degree_33(self):
        # x^k e^{-x} = x^{k-2} * (x^2 e^{-x}): exact up to k = 2n+1 = 33
        rule = gauss_laguerre_gen(16, 2)
        logx = np.log(rule.nodes)
        for k in range(2, 34):
            q = float(np.sum(rule.weights * np.exp((k - 2) * logx - rule.nodes)))
            exact = math.gamma(k + 1)
            assert abs(q - exact) / exact < 1e-12, k

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 32, 128, 512])
    def test_invariants(self, n, alpha):
        rule = gauss_laguerre_gen(n, alpha)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.isfinite(rule.weights))
        raw = rule.weights * np.exp(-rule.nodes)
        assert np.all(raw[np.isfinite(raw) & (raw > 0)] >= 0)
        total = float(np.sum(raw))
        assert abs(total - math.gamma(alpha + 1)) / math.gamma(alpha + 1) < 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gauss_laguerre_gen(4, 3)
        with pytest.raises(ValueError):
            gauss_laguerre_gen(0, 2)

    def test_deterministic(self):
        a, b = gauss_laguerre_gen(64, 2), gauss_laguerre_gen(64, 2)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


class TestPolynomialExactness:
    """Random polynomials of degree <= 2n-1 integrate to the symbolic moments."""

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64, 256])
    def test_legendre(self, n):
        rng = np.random.default_rng(n)
        rule = gauss_legendre(n)
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, 2 * n)
            k = np.arange(2 * n)
            exact = float(np.sum(np.where(k % 2 == 0, 2.0 / (k + 1), 0.0) * c))
            scale = float(np.sum(np.where(k % 2 == 0, 2.0 / (k + 1), 0.0) * np.abs(c)))
            quad = float(np.sum(rule.weights * np.polyval(c[::-1], rule.nodes)))
            assert abs(quad - exact) <= 1e-11 * max(scale, 1e-30)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64, 256])
    def test_laguerre_alpha2(self, n):
        # polynomial expressed in moment-normalized monomials x^k / (k+2)!,
        # each of which integrates to exactly 1 against x^2 e^{-x};
        # evaluated in extended precision so the oracle does not limit the check
        rng = np.random.default_rng(1000 + n)
        rule = gauss_laguerre_gen(n, 2)
        x = rule.nodes.astype(np.longdouble)
        logw = np.log(rule.weights.astype(np.longdouble))
        k = np.arange(2 * n, dtype=np.longdouble)
        lgamma_k3 = np.cumsum(np.log(np.arange(1, 2 * n + 3, dtype=np.longdouble)))[
            np.arange(2 * n) + 1
        ]  # log((k+2)!)
        terms = np.exp(
            logw[:, None] - x[:, None] + k[None, :] * np.log(x)[:, None] - lgamma_k3[None, :]
        )
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, 2 * n)
            quad = float(np.sum(terms @ c.astype(np.longdouble)))
            exact = float(np.sum(c))
            scale = float(np.sum(np.abs(c)))
            assert abs(quad - exact) <= 1e-11 * max(scale, 1e-30)
