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


def reference_h_of_d2(model, d2):
    """H from squared distance, written with plain operators and fresh arrays."""
    d2 = np.asarray(d2, dtype=float)
    if model.family == "mimo_mrc_2x2":
        x = model.beta * d2
        e = np.exp(-x)
        return e * (x * x + 2.0 - e)
    if model.family == "rayleigh":
        return np.exp(-model.beta * d2 ** (0.5 * model.eta))
    return (d2 <= model.r0**2).astype(float)


EXACT_MODELS = [
    *(mimo_mrc_2x2(b) for b in (0.5, 1.0, 2.0)),
    *(rayleigh(0.7, eta) for eta in (2.0, 2.5, 3.0, 4.0)),
    hard_disk(1.3),
]


class TestInPlaceExactness:
    """h_of_d2 into caller buffers is bit-equal to the plain-operator form."""

    D2 = np.concatenate([[0.0, 1.69, 1.69 * (1 + 2**-52)], np.linspace(0.0, 60.0, 5001) ** 1.5])

    @pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: f"{m.family}-{m.beta}-{m.eta}")
    def test_arrays(self, model):
        want = reference_h_of_d2(model, self.D2)
        assert np.array_equal(h_of_d2(model, self.D2), want)
        out, scratch = np.full_like(self.D2, np.nan), np.full_like(self.D2, np.nan)
        d2 = self.D2.copy()
        got = h_of_d2(model, d2, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(out, want)
        assert np.array_equal(d2, self.D2)  # input untouched
        # Slices of larger buffers, as the kernel passes them.
        big, big_scratch = np.empty(2 * d2.size), np.empty(2 * d2.size)
        got = h_of_d2(model, d2, out=big[: d2.size], scratch=big_scratch[: d2.size])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: f"{m.family}-{m.beta}-{m.eta}")
    def test_scalars(self, model):
        for v in (0.0, 0.3, 1.69, 7.5, 40.0):
            want = reference_h_of_d2(model, v)
            for d2 in (v, np.float64(v), np.array(v)):
                got = h_of_d2(model, d2)
                assert np.ndim(got) == 0 and np.array_equal(got, want)
                out, scratch = np.empty(()), np.empty(())
                assert np.array_equal(h_of_d2(model, d2, out=out, scratch=scratch), want)
                assert np.array_equal(out, want)


class TestSpecs:
    def test_parse(self):
        assert model_from_spec({"family": "mimo_mrc_2x2", "beta": 2.0}).beta == 2.0
        m = model_from_spec({"family": "rayleigh", "beta": 1.0, "eta": 3.0})
        assert m.eta == 3.0
        assert model_from_spec({"family": "hard_disk", "r0": 2.0}).r0 == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ModelError):
            model_from_spec({"family": "nakagami", "beta": 1.0})
        with pytest.raises(ModelError):
            model_from_spec({"family": "rayleigh"})
        with pytest.raises(ModelError):
            model_from_spec({"beta": 1.0})
        with pytest.raises(ModelError, match="must be an object"):
            model_from_spec('{"family": "mimo_mrc_2x2", "beta": 1.0}')
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
        for tiny in (1e-200, 5e-324):
            with pytest.raises(ModelError, match="too small"):
                hard_disk(tiny)
            with pytest.raises(ModelError, match="too small"):
                model_from_spec({"family": "hard_disk", "r0": tiny})
        assert hard_disk(1e-150).r0 == pytest.approx(1e-150)
        for spec in (
            {"family": "mimo_mrc_2x2", "beta": "x"},
            {"family": "rayleigh", "beta": [1.0]},
            {"family": "hard_disk", "r0": {}},
        ):
            with pytest.raises(ModelError):
                model_from_spec(spec)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"family": "mimo_mrc_2x2", "beta": 1.0, "r0": 9.0}, "r0"),
            ({"family": "rayleigh", "beta": 1.0, "eta": 3.0, "r0": 1.0}, "r0"),
            ({"family": "hard_disk", "r0": 1.0, "beta": 1.0}, "beta"),
            ({"family": "hard_disk", "r0": 1.0, "eta": 2.0, "Beta": 1.0}, "Beta, eta"),
        ],
    )
    def test_unknown_field_named(self, spec, field):
        with pytest.raises(ModelError, match=f"unknown field\\(s\\): {field}$"):
            model_from_spec(spec)
