import math

import numpy as np
import pytest

from biasaudit.data import attack_responses, bona_fide_responses
from biasaudit.dip import dip_critical_value, dip_statistic
from biasaudit.errors import ParameterError
from biasaudit.synth import (
    LognormalSpec,
    MixtureSpec,
    OutlierSpec,
    demo_dataset,
    gen_code_vectors,
    gen_lognormal,
    gen_mixture,
    inject_outliers,
)


class TestGenLognormal:
    def test_vanishing_sigma_collapses_to_point_mass(self):
        spec = LognormalSpec(mu=-3.6, sigma=1e-9, n=100)
        vals = gen_lognormal(spec, seed=1)
        assert np.allclose(vals, math.exp(-3.6), rtol=1e-6)

    def test_mean_within_three_standard_errors(self):
        spec = LognormalSpec(mu=-3.6, sigma=0.45, n=10000)
        vals = gen_lognormal(spec, seed=8)
        sd = spec.expected_mean * math.sqrt(math.exp(0.45**2) - 1.0)
        assert abs(vals.mean() - spec.expected_mean) < 3 * sd / math.sqrt(spec.n)

    def test_expected_mean_property(self):
        spec = LognormalSpec(mu=-2.0, sigma=0.5, n=1)
        assert spec.expected_mean == math.exp(-2.0 + 0.125)

    def test_deterministic_in_seed(self):
        spec = LognormalSpec(mu=-3.0, sigma=0.4, n=50)
        np.testing.assert_array_equal(gen_lognormal(spec, 9), gen_lognormal(spec, 9))
        assert not np.array_equal(gen_lognormal(spec, 9), gen_lognormal(spec, 10))

    def test_all_positive(self):
        vals = gen_lognormal(LognormalSpec(-3.6, 0.9, 500), seed=3)
        assert np.all(vals > 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LognormalSpec(mu=0.0, sigma=0.0, n=10)
        with pytest.raises(ParameterError):
            LognormalSpec(mu=0.0, sigma=0.5, n=0)
        with pytest.raises(ParameterError):
            gen_lognormal(LognormalSpec(0.0, 0.5, 10), seed=-1)


class TestGenMixture:
    def test_single_component_equals_plain_lognormal(self):
        spec = MixtureSpec(((1.0, LognormalSpec(-3.6, 0.45, 1)),))
        mixed = gen_mixture(spec, seed=7, n=80)
        plain = gen_lognormal(LognormalSpec(-3.6, 0.45, 80), seed=7)
        np.testing.assert_array_equal(mixed, plain)

    def test_separated_components_read_as_bimodal(self):
        # mode ratio exp(1.4) > 4: the dip blows past the unimodal null
        spec = MixtureSpec(
            (
                (0.5, LognormalSpec(-4.3, 0.25, 1)),
                (0.5, LognormalSpec(-2.9, 0.25, 1)),
            )
        )
        vals = gen_mixture(spec, seed=11, n=200)
        cv = dip_critical_value(200, 0.05, 500, seed=5)
        assert dip_statistic(list(vals)) > cv

    def test_tiny_weight_component_rarely_drawn(self):
        # expected minority draws: 500 * 0.001 = 0.5
        spec = MixtureSpec(
            (
                (0.999, LognormalSpec(-4.0, 0.1, 1)),
                (0.001, LognormalSpec(2.0, 0.1, 1)),
            )
        )
        vals = gen_mixture(spec, seed=13, n=500)
        assert int(np.sum(vals > 1.0)) <= 4

    def test_deterministic_in_seed(self):
        spec = MixtureSpec(
            (
                (0.4, LognormalSpec(-4.0, 0.3, 1)),
                (0.6, LognormalSpec(-3.0, 0.3, 1)),
            )
        )
        np.testing.assert_array_equal(
            gen_mixture(spec, 21, 60), gen_mixture(spec, 21, 60)
        )

    def test_validation(self):
        good = LognormalSpec(-3.0, 0.3, 1)
        with pytest.raises(ParameterError):
            MixtureSpec(())
        with pytest.raises(ParameterError):
            MixtureSpec(((0.5, good), (0.6, good)))  # sums to 1.1
        with pytest.raises(ParameterError):
            MixtureSpec(((1.2, good), (-0.2, good)))
        with pytest.raises(ParameterError):
            gen_mixture(MixtureSpec(((1.0, good),)), seed=0, n=0)


class TestInjectOutliers:
    def test_zero_fraction_is_identity(self):
        base = [0.1, 0.2, 0.3]
        out = inject_outliers(base, OutlierSpec(0.0, 8.0), seed=4)
        np.testing.assert_array_equal(out, base)

    def test_exact_count_scaled_by_factor(self):
        rng = np.random.default_rng(40)
        base = rng.lognormal(-3.6, 0.4, 200)
        out = inject_outliers(base, OutlierSpec(0.05, 8.0), seed=17)
        changed = out != base
        assert int(changed.sum()) == 10  # ceil(0.05 * 200)
        np.testing.assert_array_equal(out[changed], base[changed] * 8.0)
        np.testing.assert_array_equal(out[~changed], base[~changed])

    def test_count_rounds_up(self):
        base = list(np.linspace(1.0, 2.0, 30))
        out = inject_outliers(base, OutlierSpec(0.05, 3.0), seed=2)
        assert int(np.sum(out != np.asarray(base))) == 2  # ceil(1.5)

    def test_deterministic_in_seed(self):
        base = list(np.linspace(1.0, 2.0, 50))
        a = inject_outliers(base, OutlierSpec(0.1, 5.0), seed=3)
        b = inject_outliers(base, OutlierSpec(0.1, 5.0), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ParameterError):
            OutlierSpec(0.5, 8.0)
        with pytest.raises(ParameterError):
            OutlierSpec(-0.1, 8.0)
        with pytest.raises(ParameterError):
            OutlierSpec(0.1, 1.0)


class TestGenCodeVectors:
    def test_shape_and_range(self):
        vecs = gen_code_vectors(25, d=8, k=64, separability=0.5, seed=6)
        assert len(vecs) == 50
        assert vecs.labels() == ["alpha"] * 25 + ["beta"] * 25
        assert vecs.codes.shape == (50, 8)
        assert vecs.k == 64
        assert 0 <= vecs.codes.min() and vecs.codes.max() < 64

    def test_full_separability_splits_the_codebook(self):
        vecs = gen_code_vectors(30, d=8, k=64, separability=1.0, seed=6)
        is_alpha = np.array(vecs.labels()) == "alpha"
        assert np.all(vecs.codes[is_alpha] < 32)
        assert np.all(vecs.codes[~is_alpha] >= 32)

    def test_zero_separability_shares_the_codebook(self):
        vecs = gen_code_vectors(50, d=8, k=64, separability=0.0, seed=6)
        for code in (0, 1):
            codes = vecs.codes[vecs.group_codes == code]
            assert codes.min() < 32 <= codes.max()

    def test_custom_group_names(self):
        vecs = gen_code_vectors(5, d=4, k=8, separability=0.0, seed=1, groups=("x", "y"))
        assert vecs.groups() == ["x", "y"]

    def test_deterministic_in_seed(self):
        a = gen_code_vectors(10, d=6, k=32, separability=0.3, seed=9)
        b = gen_code_vectors(10, d=6, k=32, separability=0.3, seed=9)
        np.testing.assert_array_equal(a.codes, b.codes)
        assert a.labels() == b.labels()

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_code_vectors(0, d=4, k=8, separability=0.5, seed=0)
        with pytest.raises(ParameterError):
            gen_code_vectors(5, d=0, k=8, separability=0.5, seed=0)
        with pytest.raises(ParameterError):
            gen_code_vectors(5, d=4, k=1, separability=0.5, seed=0)
        with pytest.raises(ParameterError):
            gen_code_vectors(5, d=4, k=8, separability=1.5, seed=0)
        with pytest.raises(ParameterError):
            gen_code_vectors(5, d=4, k=8, separability=0.5, seed=0, groups=("a", "a"))


class TestDemoDataset:
    def test_structure(self):
        ds = demo_dataset(n_per_group=50, seed=1)
        assert ds.groups() == ["alpha", "beta", "delta", "gamma"]  # sorted
        for g in ds.groups():
            assert len(bona_fide_responses(ds, g)) == 50
            assert len(attack_responses(ds, g)) == 50

    def test_attacks_sit_above_bona_fide(self):
        ds = demo_dataset(n_per_group=100, seed=3)
        for g in ds.groups():
            bona = bona_fide_responses(ds, g)
            att = attack_responses(ds, g)
            assert float(np.median(att)) > float(np.quantile(bona, 0.95))

    def test_no_attack_variant(self):
        ds = demo_dataset(n_per_group=30, seed=2, with_attacks=False)
        assert attack_responses(ds).tolist() == []
        assert len(ds) == 4 * 30

    def test_mechanisms_present(self):
        ds = demo_dataset(n_per_group=200, seed=12345)
        alpha = bona_fide_responses(ds, "alpha")
        beta = bona_fide_responses(ds, "beta")
        gamma = bona_fide_responses(ds, "gamma")
        delta = bona_fide_responses(ds, "delta")
        assert np.mean(beta) > np.mean(alpha)  # location shift
        assert np.std(gamma) > 1.5 * np.std(alpha)  # dispersion shift
        assert dip_statistic(delta) > dip_statistic(alpha)  # bimodality

    def test_deterministic_in_seed(self):
        a = demo_dataset(n_per_group=20, seed=7)
        b = demo_dataset(n_per_group=20, seed=7)
        assert a.sample_ids == b.sample_ids
        assert a.group_codes.tolist() == b.group_codes.tolist()
        assert a.bona_fide.tolist() == b.bona_fide.tolist()
        assert a.responses.tolist() == b.responses.tolist()

    def test_validation(self):
        with pytest.raises(ParameterError):
            demo_dataset(n_per_group=3)

    def test_unique_sample_ids(self):
        ds = demo_dataset(n_per_group=25, seed=4)
        ids = ds.sample_ids
        assert len(ids) == len(set(ids))
        assert ds.bona_fide.dtype == bool and len(ds.bona_fide) == len(ids)
