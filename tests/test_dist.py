"""Distribution algebra: frozen examples plus brute-force and property checks."""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pipedelay.dist import (
    DelayDist,
    ZERO_DELAY,
    convolve_all,
    load_samples_csv,
    max_combine,
    summarize,
)


def points_of(d: DelayDist):
    return [(float(v), float(p)) for v, p in zip(d.values, d.probs)]


def assert_dist_equal(d: DelayDist, expected, tol=1e-9):
    got = points_of(d)
    assert len(got) == len(expected)
    for (gv, gp), (ev, ep) in zip(got, sorted(expected)):
        assert abs(gv - ev) <= tol
        assert abs(gp - ep) <= tol


# Small-dist strategy: 1..6 points, values on a coarse grid so merges are exact.
small_dist = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True),
        st.lists(st.integers(1, 9), min_size=k, max_size=k),
    )
).map(
    lambda vw: DelayDist.from_points(
        [(float(v) * 0.5, w / sum(vw[1])) for v, w in zip(vw[0], vw[1])]
    )
)


class TestConstruction:
    def test_from_samples_frequency_counting(self):
        assert_dist_equal(
            DelayDist.from_samples([10, 10, 20]), [(10, 2 / 3), (20, 1 / 3)]
        )

    def test_from_samples_single_point(self):
        assert_dist_equal(DelayDist.from_samples([0]), [(0, 1.0)])

    def test_from_samples_binning_rule(self):
        assert_dist_equal(
            DelayDist.from_samples([1.2, 1.9, 3.1]), [(1, 2 / 3), (3, 1 / 3)]
        )

    def test_from_points_merges_near_duplicates(self):
        d = DelayDist.from_points([(1.0, 0.5), (1.0 + 1e-12, 0.5)])
        assert len(d.values) == 1

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            DelayDist.from_points([(1.0, 0.6), (2.0, 0.6)])
        with pytest.raises(ValueError):
            DelayDist.from_points([(1.0, -0.1), (2.0, 1.1)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DelayDist.from_points([(-1.0, 1.0)])


class TestConvolve:
    def test_deterministic_sum(self):
        assert_dist_equal(
            DelayDist.constant(1).convolve(DelayDist.constant(2)), [(3, 1.0)]
        )

    def test_two_coins(self):
        coin = DelayDist.from_points([(0, 0.5), (1, 0.5)])
        assert_dist_equal(
            coin.convolve(coin), [(0, 0.25), (1, 0.5), (2, 0.25)]
        )

    def test_constant_acts_as_shift(self):
        d = DelayDist.from_points([(2, 0.3), (7, 0.7)])
        assert_dist_equal(DelayDist.constant(5).convolve(d), [(7, 0.3), (12, 0.7)])

    @given(small_dist, small_dist)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, a, b):
        expected = {}
        for (va, pa), (vb, pb) in itertools.product(points_of(a), points_of(b)):
            expected[va + vb] = expected.get(va + vb, 0.0) + pa * pb
        got = dict(points_of(a.convolve(b)))
        assert set(got) == set(expected)
        for v, p in expected.items():
            assert abs(got[v] - p) <= 1e-9

    @given(small_dist, small_dist)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        assert_dist_equal(a.convolve(b), points_of(b.convolve(a)))

    @given(small_dist, small_dist, small_dist)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        left = a.convolve(b).convolve(c)
        right = a.convolve(b.convolve(c))
        assert_dist_equal(left, points_of(right))

    @given(small_dist, small_dist)
    @settings(max_examples=40, deadline=None)
    def test_conserves_probability(self, a, b):
        assert abs(a.convolve(b).probs.sum() - 1.0) <= 1e-9

    def test_convolve_all_rejects_empty(self):
        with pytest.raises(ValueError):
            convolve_all([])


class TestMaxCombine:
    def test_two_dists(self):
        a = DelayDist.from_points([(1, 0.5), (2, 0.5)])
        b = DelayDist.from_points([(1, 0.5), (3, 0.5)])
        assert_dist_equal(max_combine([a, b]), [(1, 0.25), (2, 0.25), (3, 0.5)])

    def test_singleton_identity(self):
        d = DelayDist.from_points([(4, 0.25), (9, 0.75)])
        assert_dist_equal(max_combine([d]), points_of(d))

    def test_dominated_constant(self):
        assert_dist_equal(
            max_combine([DelayDist.constant(7), DelayDist.constant(3)]), [(7, 1.0)]
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            max_combine([])

    @given(st.lists(small_dist, min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, dists):
        expected = {}
        for combo in itertools.product(*(points_of(d) for d in dists)):
            v = max(c[0] for c in combo)
            p = np.prod([c[1] for c in combo])
            expected[v] = expected.get(v, 0.0) + p
        got = dict(points_of(max_combine(dists)))
        assert set(got) == set(expected)
        for v, p in expected.items():
            assert abs(got[v] - p) <= 1e-9

    @given(st.lists(small_dist, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_support_and_extremes(self, dists):
        out = max_combine(dists)
        union = set()
        for d in dists:
            union.update(d.values.tolist())
        assert set(out.values.tolist()) <= union
        assert out.min == max(d.min for d in dists)
        assert out.max == max(d.max for d in dists)
        assert abs(out.probs.sum() - 1.0) <= 1e-9


class TestShift:
    def test_positive(self):
        assert_dist_equal(DelayDist.constant(10).shift(5), [(15, 1.0)])

    def test_identity(self):
        d = DelayDist.from_points([(2, 0.5), (4, 0.5)])
        assert_dist_equal(d.shift(0), points_of(d))

    def test_boundary_negative(self):
        d = DelayDist.from_points([(2, 0.5), (4, 0.5)])
        assert_dist_equal(d.shift(-2), [(0, 0.5), (2, 0.5)])

    def test_rejects_negative_result(self):
        d = DelayDist.from_points([(2, 0.5), (4, 0.5)])
        with pytest.raises(ValueError):
            d.shift(-3)

    @given(small_dist)
    @settings(max_examples=40, deadline=None)
    def test_conserves_probability(self, d):
        assert abs(d.shift(3.25).probs.sum() - 1.0) <= 1e-9


class TestSummarize:
    def test_two_point(self):
        s = summarize(DelayDist.from_points([(1, 0.5), (3, 0.5)]))
        assert (s.min, s.max, s.mean) == (1, 3, 2)
        assert s.p50 == 1
        assert s.p99 == 3

    def test_constant(self):
        s = summarize(DelayDist.constant(7))
        assert s.min == s.max == s.mean == s.p50 == s.p99 == 7

    def test_quantile_boundary(self):
        d = DelayDist.from_points([(0, 0.99), (100, 0.01)])
        assert d.quantile(0.99) == 0
        assert d.max == 100

    @given(small_dist, st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_quantile_monotone(self, d, q1, q2):
        lo, hi = sorted((q1, q2))
        assert d.quantile(lo) <= d.quantile(hi)


class TestSampling:
    def test_constant_sample(self):
        d = DelayDist.constant(5)
        rng = np.random.default_rng(0)
        assert d.sample_array(rng, 3).tolist() == [5, 5, 5]

    def test_empirical_frequency(self):
        d = DelayDist.from_points([(0, 0.5), (1, 0.5)])
        rng = np.random.default_rng(1234)
        xs = d.sample_array(rng, 100_000)
        p0 = (xs == 0).mean()
        assert 0.49 <= p0 <= 0.51

    def test_same_seed_same_sequence(self):
        d = DelayDist.from_points([(0, 0.25), (1, 0.5), (2, 0.25)])
        a = d.sample_array(np.random.default_rng(7), 1000)
        b = d.sample_array(np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    def test_samples_stay_on_support(self):
        d = DelayDist.from_points([(0.5, 0.2), (1.5, 0.3), (9.0, 0.5)])
        xs = d.sample_array(np.random.default_rng(3), 5000)
        assert set(np.unique(xs)) <= {0.5, 1.5, 9.0}

    def test_guide_index_is_the_binary_search(self):
        _guide_property(DelayDist._index)()

    def test_guide_index_needs_its_fallback(self):
        """The property catches a kernel that stops after the forward step:
        clustered tiny probabilities put several cut points in one bucket."""
        with pytest.raises(AssertionError):
            _guide_property(_without_fallback, shrink=False)()


def _without_fallback(d: DelayDist, u: np.ndarray) -> np.ndarray:
    """`DelayDist._index` without its binary search of the values still
    behind their cut point."""
    cut, guide, size = d._guide
    idx = guide[(u * size).astype(np.intp)]
    idx += cut[idx] <= u
    return idx


def _guide_property(kernel, shrink=True):
    """The property that `kernel(d, u)` is the binary search
    min(searchsorted(_cum, u, "right"), K - 1), on distributions of 1 to
    600 points: a run of `length` points from `start` has its probabilities
    scaled by `tiny`, and the largest one moves by `drift` units of 2^-53,
    so the cumulative sums can end a few ulps off 1. u holds every bucket
    edge b/G, 0, 1 - 2^-53, every cut point and its neighbours, and 500
    uniforms."""
    phases = (Phase.explicit, Phase.generate) + ((Phase.shrink,) if shrink else ())

    @settings(max_examples=150, deadline=None, phases=phases)
    @given(k=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), start=st.integers(0, 600),
           length=st.integers(0, 600), tiny=st.sampled_from([1.0, 1e-4, 1e-9, 1e-15]),
           drift=st.integers(-6, 6))
    @example(k=40, seed=0, start=10, length=20, tiny=1e-9, drift=-3)
    def check(k, seed, start, length, tiny, drift):
        rng = np.random.default_rng(seed)
        probs = rng.random(k) + 0.01
        probs[start:start + length] *= tiny
        probs /= probs.sum()
        probs[probs.argmax()] += drift * 2.0**-53
        d = DelayDist(np.arange(k, dtype=np.float64), probs)
        _, _, size = d._guide
        cum = d._cum
        u = np.concatenate((np.arange(size) / size, [0.0, 1 - 2.0**-53],
                            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                            rng.random(500)))
        u = u[u < 1.0]
        want = np.minimum(cum.searchsorted(u, "right"), k - 1)
        assert kernel(d, u).tolist() == want.tolist()

    return check


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1.2\n1.9\n3.1\n")
        samples = load_samples_csv(path)
        assert_dist_equal(
            DelayDist.from_samples(samples), [(1, 2 / 3), (3, 1 / 3)]
        )

    def test_zero_delay_constant(self):
        assert ZERO_DELAY.min == ZERO_DELAY.max == 0.0
