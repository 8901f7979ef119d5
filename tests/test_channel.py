"""Link families: H(r) values, monotonicity, scaling, connection masses."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet.channel import (
    ModelError,
    bulk_mass,
    h,
    h_of_d2,
    h_prime,
    hard_disk,
    mimo_mrc_2x2,
    model_from_spec,
    rayleigh,
)


class TestMimoMrc:
    def test_values(self):
        m = mimo_mrc_2x2(1.0)
        assert_allclose(h(m, 0.0), 1.0)
        e = math.exp(-1.0)
        assert_allclose(h(m, 1.0), e * (1.0 + 2.0 - e))
        assert_allclose(h(m, 1.0), 0.96830, atol=5e-6)

    def test_monotone_and_range(self):
        m = mimo_mrc_2x2(1.0)
        r = np.linspace(0.0, 10.0 * m.r0, 4001)
        vals = h(m, r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_scaling(self):
        r = np.linspace(0.0, 5.0, 200)
        assert_allclose(h(mimo_mrc_2x2(4.0), r), h(mimo_mrc_2x2(1.0), 2.0 * r), rtol=1e-13)

    def test_h_prime_matches_finite_difference(self):
        m = mimo_mrc_2x2(1.3)
        r = np.linspace(0.05, 4.0, 50)
        eps = 1e-6
        fd = (h(m, r + eps) - h(m, r - eps)) / (2 * eps)
        assert_allclose(h_prime(m, r), fd, atol=1e-8)
        assert np.all(h_prime(m, r) <= 1e-15)

    def test_bulk_mass_closed_form(self):
        for beta in (0.5, 1.0, 2.0):
            m = mimo_mrc_2x2(beta)
            num, _ = integrate.quad(lambda r: 4 * np.pi * r * r * h(m, r), 0, 12 / math.sqrt(beta))
            assert_allclose(bulk_mass(m), num, rtol=1e-10)
            assert_allclose(bulk_mass(m), (23 - math.sqrt(2)) / 4 * (np.pi / beta) ** 1.5)

    def test_bulk_mass_beta_scaling(self):
        betas = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        vals = np.array([bulk_mass(mimo_mrc_2x2(b)) * b**1.5 for b in betas])
        assert_allclose(vals, vals[0], rtol=1e-10)

    def test_requires_eta_2(self):
        with pytest.raises(ModelError):
            model_from_spec({"family": "mimo_mrc_2x2", "beta": 1.0, "eta": 3.0})


class TestRayleigh:
    def test_values(self):
        m = rayleigh(1.0, 2.0)
        assert_allclose(h(m, 1.0), math.exp(-1.0))
        m4 = rayleigh(1.0, 4.0)
        assert_allclose(h(m4, 2.0), math.exp(-16.0))

    def test_bulk_mass_vs_quadrature(self):
        for eta in (2.0, 3.0, 4.0):
            m = rayleigh(0.7, eta)
            num, _ = integrate.quad(lambda r: 4 * np.pi * r * r * h(m, r), 0, m.r0 * 60 ** (1 / eta))
            assert_allclose(bulk_mass(m), num, rtol=1e-9)

    def test_eta2_closed_form(self):
        assert_allclose(bulk_mass(rayleigh(1.0, 2.0)), np.pi**1.5)


class TestHardDisk:
    def test_step(self):
        m = hard_disk(1.0)
        assert h(m, 0.999) == 1.0
        assert h(m, 1.001) == 0.0
        assert m.r0 == pytest.approx(1.0)

    def test_bulk_mass(self):
        assert_allclose(bulk_mass(hard_disk(2.0)), 4.0 / 3.0 * np.pi * 8.0)

    def test_not_smooth(self):
        with pytest.raises(ModelError):
            h_prime(hard_disk(1.0), 0.5)


class TestSampling:
    def test_h_of_d2_matches_h(self):
        for m in (mimo_mrc_2x2(0.8), rayleigh(1.0, 3.0), hard_disk(1.5)):
            r = np.linspace(0.0, 4.0, 100)
            assert_allclose(h_of_d2(m, r * r), np.asarray(h(m, r)), rtol=1e-13)


class TestSpecs:
    def test_parse(self):
        assert model_from_spec({"family": "mimo_mrc_2x2", "beta": 2.0}).beta == 2.0
        m = model_from_spec('{"family": "rayleigh", "beta": 1.0, "eta": 3.0}')
        assert m.eta == 3.0
        assert model_from_spec({"family": "hard_disk", "r0": 2.0}).r0 == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ModelError):
            model_from_spec({"family": "nakagami", "beta": 1.0})
        with pytest.raises(ModelError):
            model_from_spec({"family": "rayleigh"})
        with pytest.raises(ModelError):
            model_from_spec({"beta": 1.0})
        with pytest.raises(ModelError):
            mimo_mrc_2x2(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ModelError):
                mimo_mrc_2x2(bad)
            with pytest.raises(ModelError):
                rayleigh(1.0, bad)
            with pytest.raises(ModelError):
                hard_disk(bad)
        with pytest.raises(ModelError):
            hard_disk(0.0)
        for spec in (
            {"family": "mimo_mrc_2x2", "beta": "x"},
            {"family": "rayleigh", "beta": [1.0]},
            {"family": "hard_disk", "r0": {}},
        ):
            with pytest.raises(ModelError):
                model_from_spec(spec)
