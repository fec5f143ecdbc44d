"""Spherical Laguerre radial basis and its exact quadrature transform."""

import math

import numpy as np
import pytest

from flaglets.quadrature import MAX_NODES, _laguerre_last
from flaglets.radial_laguerre import (
    RadialCoeffs,
    RadialParams,
    basis_matrix,
    laguerre_basis,
    radial_nodes,
    slag_forward,
    slag_inverse,
    tau_for_boundary,
)

from oracles import laguerre_basis_high_precision


class TestBasisValues:
    def test_origin_values(self):
        # K_p(0) = sqrt(p! / (p+2)!) * L_p^{(2)}(0) with tau = 1:
        # L_p^{(2)}(0) = (p+2)(p+1)/2
        params = RadialParams(4, 1.0)
        k = laguerre_basis(params, 0.0)
        assert k[0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert k[1] == pytest.approx(3.0 / math.sqrt(6.0))
        assert k[2] == pytest.approx(6.0 * math.sqrt(2.0 / 24.0))

    def test_tau_scaling(self):
        # K_p under tau is tau^{-3/2} K_p(r / tau) of the unit-scale basis
        params1 = RadialParams(6, 1.0)
        params2 = RadialParams(6, 2.0)
        r = 3.7
        a = laguerre_basis(params2, r)
        b = laguerre_basis(params1, r / 2.0) * 2.0 ** (-1.5)
        assert np.allclose(a, b, rtol=1e-13, atol=0)

    def test_gram_identity(self):
        # int K_p K_q r^2 dr = delta_pq via the exact quadrature
        params = RadialParams(32, 2.0)
        radii, weights = radial_nodes(params)
        kmat = basis_matrix(params, radii)
        gram = (kmat * weights[None, :]) @ kmat.T
        assert np.max(np.abs(gram - np.eye(32))) < 1e-11

    def test_vs_mpmath(self):
        # five nodes of the rule and two radii past the 1e140 rescaling
        P, tau = 300, 1.7
        params = RadialParams(P, tau)
        radii, _ = radial_nodes(params)
        pts = np.concatenate([radii[[0, 75, 150, 225, P - 1]], [700.0 * tau, 1100.0 * tau]])
        _, _, c, _ = _laguerre_last(P - 1, 2, pts / tau)
        assert np.all(c[-2:] > -0.5 * pts[-2:] / tau)
        kmat = basis_matrix(params, pts)
        for i, r in enumerate(pts):
            want = laguerre_basis_high_precision(P, tau, r)
            # relative to the largest |K_q(r)| for q <= p
            envelope = np.maximum.accumulate(np.abs(want))
            err = np.max(np.abs(kmat[:, i] - want) / envelope)
            assert err <= 2e-12, (r, err)

    @pytest.mark.parametrize("P", [64, 256, 1024, 2048])
    @pytest.mark.parametrize("tau", [1.0, 3.7])
    def test_gram_envelope(self, P, tau):
        # measured: at most 0.31 eps P from P = 64 to 2048
        params = RadialParams(P, tau)
        radii, weights = radial_nodes(params)
        kmat = basis_matrix(params, radii)
        gram = (kmat * weights) @ kmat.T
        err = np.max(np.abs(gram - np.eye(P)))
        assert err <= 0.5 * np.finfo(float).eps * P, err


class TestNodes:
    def test_node_count_and_positivity(self):
        params = RadialParams(8, 1.5)
        radii, weights = radial_nodes(params)
        assert radii.shape == (8,) and weights.shape == (8,)
        assert np.all(radii > 0) and np.all(np.diff(radii) > 0)
        assert np.all(weights > 0)

    def test_tau_moves_nodes_linearly(self):
        r1, _ = radial_nodes(RadialParams(2, 1.0))
        r2, _ = radial_nodes(RadialParams(2, 0.5))
        assert np.allclose(r1, 2.0 * r2, rtol=1e-14)
        # alpha=2 two-point rule nodes are the roots of L_2^{(2)}: 2 and 6
        assert r1[0] == pytest.approx(2.0)
        assert r1[1] == pytest.approx(6.0)

    def test_tau_for_boundary(self):
        tau = tau_for_boundary(16, 10.0)
        radii, _ = radial_nodes(RadialParams(16, tau))
        assert radii[-1] == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("boundary", [0.0, -1.0, math.nan])
    def test_tau_for_boundary_rejects_non_positive_radius(self, boundary):
        with pytest.raises(ValueError, match="must be positive"):
            tau_for_boundary(4, boundary)


class TestRoundTrips:
    @pytest.mark.parametrize("P", [1, 2, 4, 16, 64, 128])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 7.3])
    def test_coeff_roundtrip(self, P, tau):
        params = RadialParams(P, tau)
        radii, _ = radial_nodes(params)
        for seed in range(5):
            rng = np.random.default_rng(10 * P + seed)
            coeffs = RadialCoeffs(params, rng.uniform(-1, 1, P))
            samples = slag_inverse(coeffs, radii)
            back = slag_forward(samples, params)
            rel = np.max(np.abs(back.coeffs - coeffs.coeffs)) / np.max(np.abs(coeffs.coeffs))
            assert rel < 1e-11, (P, tau, seed, rel)

    def test_parseval(self):
        params = RadialParams(48, 1.3)
        radii, weights = radial_nodes(params)
        rng = np.random.default_rng(3)
        coeffs = RadialCoeffs(params, rng.uniform(-1, 1, 48))
        samples = slag_inverse(coeffs, radii)
        grid_energy = float(np.sum(weights * np.abs(samples) ** 2))
        assert abs(grid_energy - np.sum(coeffs.coeffs**2)) < 1e-10 * np.sum(coeffs.coeffs**2)

    def test_large_order_stability(self):
        params = RadialParams(512, 1.0)
        radii, weights = radial_nodes(params)
        kmat = basis_matrix(params, radii)
        assert np.all(np.isfinite(kmat))
        # spot-check orthonormality rows far into the basis
        gram_row = (kmat[500] * weights) @ kmat[[0, 250, 500]].T
        assert abs(gram_row[2] - 1.0) < 1e-9
        assert abs(gram_row[0]) < 1e-9 and abs(gram_row[1]) < 1e-9


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RadialParams(0, 1.0)
        with pytest.raises(ValueError):
            RadialParams(4, 0.0)
        with pytest.raises(ValueError):
            RadialParams(4, -2.0)
        with pytest.raises(ValueError):
            RadialParams(MAX_NODES + 1, 1.0)

    @pytest.mark.parametrize("tau", [1e-300, 1e300, 5e-324, 1e308])
    def test_rejects_scale_whose_powers_leave_the_doubles(self, tau):
        # tau^3 overflows at 1e300 and tau^(-3/2) at 1e-300
        with pytest.raises(ValueError):
            RadialParams(4, tau)

    @pytest.mark.parametrize("tau", [1e-100, 1e100])
    def test_extreme_scales_in_range_round_trip(self, tau):
        params = RadialParams(8, tau)
        radii, _ = radial_nodes(params)
        c = RadialCoeffs(params, np.random.default_rng(3).uniform(-1, 1, 8))
        back = slag_forward(slag_inverse(c, radii), params).coeffs
        assert np.max(np.abs(back - c.coeffs)) < 1e-12

    def test_rejects_wrong_coeff_length(self):
        with pytest.raises(ValueError):
            RadialCoeffs(RadialParams(4, 1.0), np.zeros(5))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            basis_matrix(RadialParams(4, 1.0), np.array([-1.0]))
