"""Link families: H(r) values, monotonicity, scaling, connection masses."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet.channel import (
    _TERMS,
    ModelError,
    bulk_mass,
    face_mass,
    h,
    h_of_d2,
    h_prime,
    hard_disk,
    mimo_mrc_2x2,
    model_from_spec,
    rayleigh,
)
from prismnet.quadrature import r_max


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

    def test_requires_eta_2(self):
        with pytest.raises(ModelError):
            model_from_spec({"family": "mimo_mrc_2x2", "beta": 1.0, "eta": 3.0})


class TestRayleigh:
    def test_values(self):
        m = rayleigh(1.0, 2.0)
        assert_allclose(h(m, 1.0), math.exp(-1.0))
        m4 = rayleigh(1.0, 4.0)
        assert_allclose(h(m4, 2.0), math.exp(-16.0))


class TestHardDisk:
    def test_step(self):
        m = hard_disk(1.0)
        assert h(m, 0.999) == 1.0
        assert h(m, 1.001) == 0.0
        assert m.r0 == pytest.approx(1.0)

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
    *(mimo_mrc_2x2(b) for b in (0.3, 0.5, 1.0, 2.0, 3.7, 7.0)),
    *(rayleigh(0.7, eta) for eta in (2.0, 2.5, 3.0, 4.0)),
    rayleigh(1.0, 3.0),
    hard_disk(1.3),
]


def model_id(m):
    return f"{m.family}-{m.beta}-{m.eta}"


@pytest.mark.parametrize("model", [m for m in EXACT_MODELS if m.smooth], ids=model_id)
class TestTermTable:
    """The term tables that h_prime and the masses read, tied to h_of_d2 and h."""

    def test_sum_matches_h_of_d2(self, model):
        # Within a few ulps of 1, H's scale: the stream's u < H reads h_of_d2,
        # which the term-wise sum equals bit for bit on only some points.
        r = np.linspace(0.0, 12.0, 4801)
        s = r / model.r0
        table = sum(
            c * np.power(s, p) * np.exp(-a * np.power(s, model.eta))
            for c, p, a in _TERMS[model.family]
        )
        assert_allclose(table, h_of_d2(model, r * r), rtol=0, atol=4 * np.finfo(float).eps)

    def test_h_prime_matches_central_differences(self, model):
        r = np.linspace(0.05, 4.0, 50) * model.r0
        eps = 1e-6 * model.r0
        fd = (h(model, r + eps) - h(model, r - eps)) / (2 * eps)
        assert_allclose(h_prime(model, r), fd, atol=1e-8 / model.r0)
        assert np.all(h_prime(model, r) <= 1e-15)

    def test_r_max_tail_negligible(self, model):
        assert h(model, r_max(model)) < 1e-17


class TestMasses:
    @pytest.mark.parametrize("model", EXACT_MODELS, ids=model_id)
    def test_match_quadrature(self, model):
        # 4 pi int_0^inf r^2 H(r) dr and 2 pi int_0^inf r H(r) dr; H is below
        # 1e-300 beyond 30 r0 for every smooth family here, and the hard
        # disk's step lies at r0.
        for mass, factor, k in ((bulk_mass, 4 * np.pi, 2), (face_mass, 2 * np.pi, 1)):
            num, _ = integrate.quad(
                lambda r: factor * r**k * h(model, r), 0, 30 * model.r0, points=[model.r0],
                epsabs=0, epsrel=1e-13, limit=200,
            )
            assert_allclose(mass(model), num, rtol=1e-12)

    CLOSED_FORMS = [
        *(
            (mimo_mrc_2x2(b), (23 - math.sqrt(2)) / 4 * (np.pi / b) ** 1.5, 7 * np.pi / (2 * b))
            for b in (0.25, 0.5, 1.0, 2.0, 4.0)
        ),
        (rayleigh(1.0, 2.0), np.pi**1.5, np.pi),
        (hard_disk(2.0), 4 * np.pi * 2.0**3 / 3, np.pi * 2.0**2),
    ]

    @pytest.mark.parametrize(
        "model, bulk, face", CLOSED_FORMS, ids=[model_id(m) for m, _, _ in CLOSED_FORMS]
    )
    def test_closed_forms(self, model, bulk, face):
        assert_allclose(bulk_mass(model), bulk, rtol=1e-15)
        assert_allclose(face_mass(model), face, rtol=1e-15)


class TestInPlaceExactness:
    """h_of_d2, whose later steps work in place on its first step's result,
    is bit-equal to the plain-operator form and leaves its input untouched."""

    D2 = np.concatenate([[0.0, 1.69, 1.69 * (1 + 2**-52)], np.linspace(0.0, 60.0, 5001) ** 1.5])

    @pytest.mark.parametrize("model", EXACT_MODELS, ids=model_id)
    def test_arrays(self, model):
        want = reference_h_of_d2(model, self.D2)
        d2 = self.D2.copy()
        assert np.array_equal(h_of_d2(model, d2), want)
        assert np.array_equal(d2, self.D2)
        # Slices of a larger array, as the kernel passes its blocks.
        big = np.concatenate([d2, d2])
        for part in (big[: d2.size], big[d2.size :], big[::2]):
            assert np.array_equal(h_of_d2(model, part), reference_h_of_d2(model, part))
        assert np.array_equal(big[: d2.size], self.D2) and np.array_equal(big[d2.size :], self.D2)

    @pytest.mark.parametrize("model", EXACT_MODELS, ids=model_id)
    def test_scalars(self, model):
        for v in (0.0, 0.3, 1.69, 7.5, 40.0):
            want = reference_h_of_d2(model, v)
            for d2 in (v, np.float64(v), np.array(v)):
                got = h_of_d2(model, d2)
                assert np.ndim(got) == 0 and np.array_equal(got, want)
            d2 = np.array(v)
            h_of_d2(model, d2)
            assert d2 == v


class TestScalarExactness:
    """h and h_prime on one float equal the array path bit for bit."""

    R = np.concatenate([[0.0, 1.3, 1.3 * (1 + 2**-52)], np.sqrt(TestInPlaceExactness.D2[3::25])])

    @pytest.mark.parametrize("model", EXACT_MODELS, ids=model_id)
    def test_h(self, model):
        self.check(h, model)

    @pytest.mark.parametrize(
        "model", [m for m in EXACT_MODELS if m.smooth], ids=model_id
    )
    def test_h_prime(self, model):
        self.check(h_prime, model)

    def check(self, f, model):
        want = f(model, self.R)
        for r, w in zip(self.R.tolist(), want.tolist()):
            for scalar in (r, np.float64(r), np.array(r)):
                got = f(model, scalar)
                assert type(got) is float and got == w, (scalar, got, w)


class TestNegativeDistance:
    @pytest.mark.parametrize("model", [mimo_mrc_2x2(1.0), rayleigh(1.0, 2.5), hard_disk(1.0)])
    @pytest.mark.parametrize(
        "r", [-1.0, np.float64(-1.0), np.array(-1.0), np.array([0.5, -1.0]), [-0.0, -2.0]]
    )
    def test_refused(self, model, r):
        fs = (h, h_prime) if model.smooth else (h,)
        for f in fs:
            with pytest.raises(ModelError, match="non-negative"):
                f(model, r)

    def test_negative_zero_allowed(self):
        m = rayleigh(1.0, 2.5)
        assert h(m, -0.0) == 1.0
        assert h_prime(m, -0.0) == 0.0


class TestSpecs:
    def test_parse(self):
        assert model_from_spec({"family": "mimo_mrc_2x2", "beta": 2.0}).beta == 2.0
        m = model_from_spec({"family": "rayleigh", "beta": 1.0, "eta": 3.0})
        assert m.eta == 3.0
        assert model_from_spec({"family": "hard_disk", "r0": 2.0}).r0 == pytest.approx(2.0)

    def test_errors(self):
        # The reader's whole messages, as the CLI prints them.
        not_an_object = "model spec must be an object with a 'family' field"
        field = "model spec field is"
        for spec, message in (
            ({"family": "nakagami", "beta": 1.0}, "unknown model family 'nakagami'"),
            ({"family": "rayleigh"}, "model spec missing field 'beta'"),
            ({"beta": 1.0}, not_an_object),
            ('{"family": "mimo_mrc_2x2", "beta": 1.0}', not_an_object),
            ({"family": "mimo_mrc_2x2", "beta": "x"}, f"mimo_mrc_2x2 {field} not a number: 'x'"),
            ({"family": "rayleigh", "beta": [1.0]}, f"rayleigh {field} not a number: [1.0]"),
            ({"family": "rayleigh", "beta": None}, f"rayleigh {field} not a number: None"),
            ({"family": "hard_disk", "r0": {}}, f"hard_disk {field} not a number: {{}}"),
            (
                {"family": "mimo_mrc_2x2", "beta": 10**400},
                f"mimo_mrc_2x2 {field} too large for a float",
            ),
        ):
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                model_from_spec(spec)
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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"family": "mimo_mrc_2x2", "beta": True}, "not a number"),
            ({"family": "mimo_mrc_2x2", "beta": "1"}, "not a number"),
            ({"family": "rayleigh", "beta": 1, "eta": np.bool_(True)}, "not a number"),
            ({"family": "hard_disk", "r0": "1"}, "not a number"),
            ({"family": "mimo_mrc_2x2", "beta": 10**400}, "too large"),
            ({"family": "rayleigh", "beta": 1, "eta": 10**400}, "too large"),
            ({"family": "hard_disk", "r0": 10**400}, "too large"),
        ],
        ids=["beta-bool", "beta-text", "eta-numpy-bool", "r0-text", "beta-big-int",
             "eta-big-int", "r0-big-int"],
    )
    def test_fields_are_json_numbers(self, spec, message):
        with pytest.raises(ModelError, match=message):
            model_from_spec(spec)

    def test_hard_disk_spec_rebuilds_its_beta(self):
        # beta**-0.5 is one ulp above this r0; the spec writes the r0 whose
        # r0**-2 gives the model's beta back.
        m = hard_disk(63.91027692934009)
        assert m.beta**-0.5 != 63.91027692934009
        assert m.to_spec() == {"family": "hard_disk", "r0": 63.91027692934009}
        assert model_from_spec(m.to_spec()) == m

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.floats(math.log(1e-150), math.log(1e150)).map(math.exp))
    def test_hard_disk_spec_round_trip(self, r0):
        m = hard_disk(r0)
        spec = json.loads(json.dumps(m.to_spec()))
        assert model_from_spec(spec) == m

    def test_numpy_scalars_are_numbers(self):
        m = model_from_spec({"family": "rayleigh", "beta": np.int64(2), "eta": np.float32(3.0)})
        assert (m.beta, m.eta) == (2.0, 3.0)

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
