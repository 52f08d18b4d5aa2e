"""Consensus geometry and the tanh vote penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from habdf import (
    BoundingBox,
    ContractViolationError,
    InsufficientDetectorsError,
    VoteConfig,
    box_distance,
    consensus_distance,
    vote_weight,
)


class TestBoundingBox:
    def test_array_conversion(self):
        b = BoundingBox(1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(np.asarray(b), [1.0, 2.0, 3.0, 4.0])
        assert np.asarray(b, dtype=np.float32).dtype == np.float32

    def test_rejects_negative_sizes(self):
        with pytest.raises(ContractViolationError):
            BoundingBox(0.0, 0.0, -1.0, 4.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            BoundingBox(np.inf, 0.0, 1.0, 1.0)


class TestBoxDistance:
    def test_identical_boxes(self):
        b = BoundingBox(5.0, 6.0, 7.0, 8.0)
        assert box_distance(b, b) == 0.0

    def test_three_four_five(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(3.0, 4.0, 10.0, 10.0)
        assert box_distance(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_random_pairs_match_componentwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.uniform(-100, 100, 4)
            r = rng.uniform(-100, 100, 4)
            want = np.sqrt(sum((p[k] - r[k]) ** 2 for k in range(4)))
            assert box_distance(p, r) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
        *[st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)] * 2)))
    def test_equals_linalg_norm_bit_for_bit(self, vecs):
        p, r = (np.array(v) for v in vecs)
        with np.errstate(over="ignore"):
            assert box_distance(p, r) == float(np.linalg.norm(p - r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_names_the_argument(self, bad):
        ok, nonfinite = [1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0]
        with pytest.raises(ContractViolationError, match="^p contains non-finite entries$"):
            box_distance(nonfinite, ok)
        with np.errstate(invalid="ignore"), pytest.raises(
                ContractViolationError, match="^p contains non-finite entries$"):
            box_distance(nonfinite, nonfinite)
        with pytest.raises(ContractViolationError, match="^r contains non-finite entries$"):
            box_distance(ok, nonfinite)
        with pytest.raises(ContractViolationError, match="^r contains non-finite entries$"):
            box_distance(ok, nonfinite[:3])

    def test_broadcastable_shapes_refused(self):
        with pytest.raises(ContractViolationError, match=r"mismatched box shapes \(4,\) vs \(1,\)"):
            box_distance([1.0, 2.0, 3.0, 4.0], [1.0])
        with pytest.raises(ContractViolationError, match=r"mismatched box shapes \(1,\) vs \(4,\)"):
            box_distance([1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ContractViolationError, match="^r must be a nonempty vector$"):
            box_distance([1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(ContractViolationError, match="^p must be a nonempty vector$"):
            box_distance([], [])

    def test_overflowing_finite_pair_is_infinite(self):
        with np.errstate(over="ignore"):
            assert box_distance([1e308, 0.0, 0.0, 0.0], [-1e308, 0.0, 0.0, 0.0]) == np.inf
            assert box_distance([1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]) == np.inf


class TestConsensusDistance:
    def test_pair_plus_far_detector(self):
        near = BoundingBox(0.0, 0.0, 10.0, 10.0)
        far = BoundingBox(100.0, 0.0, 10.0, 10.0)
        boxes = [near, near, far]
        assert consensus_distance(boxes, 0) == 0.0
        assert consensus_distance(boxes, 1) == 0.0
        assert consensus_distance(boxes, 2) == pytest.approx(100.0, abs=1e-12)

    def test_all_coincident(self):
        b = BoundingBox(1.0, 2.0, 3.0, 4.0)
        for i in range(3):
            assert consensus_distance([b, b, b], i) == 0.0

    def test_five_boxes_match_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vecs = [rng.uniform(-50, 50, 4) for _ in range(5)]
            want = oracles.pairwise_min_distances(vecs)
            for i in range(5):
                assert consensus_distance(vecs, i) == pytest.approx(want[i], abs=1e-9)

    def test_fewer_than_three_rejected(self):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(InsufficientDetectorsError):
            consensus_distance([b, b], 0)
        with pytest.raises(InsufficientDetectorsError):
            consensus_distance([b], 0)

    def test_index_out_of_range(self):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ContractViolationError):
            consensus_distance([b, b, b], 3)


class TestVoteWeight:
    def test_onset_point_is_middle_of_range(self):
        cfg = VoteConfig(omega0=1.0, omega=2.0, lam=10.0)
        assert vote_weight(10.0, cfg) == pytest.approx(3.0, abs=1e-12)

    def test_saturates_to_top_of_range(self):
        cfg = VoteConfig(omega0=1.0, omega=2.0, lam=10.0)
        assert vote_weight(18.0, cfg) == pytest.approx(5.0, abs=1e-6)

    def test_analytic_tanh_inversion_point(self):
        cfg = VoteConfig(omega0=1.0, omega=2.0, lam=10.0)
        assert vote_weight(10.0 + np.arctanh(0.5), cfg) == pytest.approx(4.0, abs=1e-9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractViolationError):
            vote_weight(-1.0)

    @pytest.mark.parametrize("num", [float, np.float64])
    def test_guards_hold_for_python_and_numpy_scalars(self, num):
        cfg = VoteConfig(omega0=1.0, omega=2.0, lam=10.0)
        for bad in (np.nan, -1.0, -np.inf):
            with pytest.raises(ContractViolationError):
                vote_weight(num(bad), cfg)
        # An infinite distance saturates at the top of the range.
        assert vote_weight(num(np.inf), cfg) == 5.0

    @pytest.mark.parametrize("omega0, omega, lam", [
        (1, 3, 50.0), (np.float32(1.1), np.float32(3.3), 50.0),
        (np.float64(1.1), np.float64(3.3), 50.0), (1.0, 1.0, np.float32(50.3)),
        (1.0, 1.0, 50), (1.0, 1.0, np.float64(50.3)),
    ])
    def test_returns_the_float64_formula_as_a_python_float(self, omega0, omega, lam):
        cfg = VoteConfig(omega0=omega0, omega=omega, lam=lam)
        for min_d in (0.0, 37.2, 50.0, 61.5, np.inf):
            want = np.float64(omega0) + np.float64(omega) * (1.0 + np.tanh(min_d - np.float64(lam)))
            got = vote_weight(min_d, cfg)
            assert type(got) is float and got == want

    @pytest.mark.parametrize("num", [int, np.float32, np.float64, float])
    def test_settings_are_stored_as_python_floats(self, num):
        cfg = VoteConfig(omega0=num(1), omega=num(3), lam=num(50))
        for name in ("omega0", "omega", "lam"):
            assert type(getattr(cfg, name)) is float, name
        assert (cfg.omega0, cfg.omega, cfg.lam) == (1.0, 3.0, 50.0)

    @pytest.mark.parametrize("omega0, omega", [(1.0, 9e307), (1.7e308, 1e307), (0.0, 1e308)])
    def test_config_whose_top_penalty_overflows_is_refused(self, omega0, omega):
        with pytest.raises(ContractViolationError) as info:
            VoteConfig(omega0=omega0, omega=omega)
        assert str(info.value) == ("omega overflows the largest vote penalty omega0 + 2 * omega, "
                                   f"got {omega}")
        assert info.value.names == ("omega",)

    @pytest.mark.parametrize("num", [float, np.float64])
    def test_largest_finite_top_is_accepted_and_reached(self, num):
        cfg = VoteConfig(omega0=num(0.0), omega=num(8e307))
        assert vote_weight(np.inf, cfg) == 1.6e308

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_bounded_and_ordered(self, d1, d2):
        cfg = VoteConfig(omega0=0.5, omega=3.0, lam=40.0)
        w1, w2 = vote_weight(d1, cfg), vote_weight(d2, cfg)
        for w in (w1, w2):
            assert cfg.omega0 <= w <= cfg.omega0 + 2 * cfg.omega
        if d1 < d2:
            assert w1 <= w2


def planted_outlier_case(rng):
    """One tight cluster plus one far box; returns (vectors, outlier index).

    The outlier's nearest-peer distance is at least 3x any inlier pairwise
    distance, sometimes deep in tanh saturation and sometimes on the slope.
    """
    n = int(rng.integers(3, 6))
    if rng.random() < 0.7:
        half, lo, hi = 6.0, 90.0, 390.0   # saturated regime
    else:
        half, lo, hi = 1.0, 37.0, 65.0    # partial-saturation regime
    center = rng.uniform(-200, 200, 4)
    inliers = center + rng.uniform(-half, half, (n - 1, 4))
    direction = rng.normal(0, 1, 4)
    direction /= np.linalg.norm(direction)
    outlier = center + direction * rng.uniform(lo, hi)
    k = int(rng.integers(0, n))
    vecs = [v for v in inliers]
    vecs.insert(k, outlier)
    return vecs, k


class TestPlantedOutlier:
    def test_outlier_takes_strictly_largest_weight(self):
        rng = np.random.default_rng(2024)
        cfg = VoteConfig(omega0=1.0, omega=1.0, lam=50.0)
        for _ in range(200):
            vecs, k = planted_outlier_case(rng)
            dists = [consensus_distance(vecs, i) for i in range(len(vecs))]
            inlier_pairs = [
                box_distance(vecs[i], vecs[j])
                for i in range(len(vecs)) for j in range(i + 1, len(vecs))
                if i != k and j != k
            ]
            assert dists[k] >= 3.0 * max(inlier_pairs)  # planted as promised
            weights = [vote_weight(d, cfg) for d in dists]
            top = max(range(len(vecs)), key=weights.__getitem__)
            assert top == k
            assert all(weights[k] > w for i, w in enumerate(weights) if i != k)


class TestTranslationInvariance:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-500.0, max_value=500.0),
           st.floats(min_value=-500.0, max_value=500.0))
    def test_shifting_all_boxes_changes_nothing(self, seed, du, dv):
        rng = np.random.default_rng(seed)
        vecs = [rng.uniform(-50, 50, 4) for _ in range(4)]
        shift = np.array([du, dv, 0.0, 0.0])
        moved = [v + shift for v in vecs]
        cfg = VoteConfig()
        for i in range(4):
            d0 = consensus_distance(vecs, i)
            d1 = consensus_distance(moved, i)
            assert d1 == pytest.approx(d0, abs=1e-9)
            assert vote_weight(d1, cfg) == pytest.approx(vote_weight(d0, cfg), abs=1e-12)
