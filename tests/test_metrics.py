"""Overlap, distance, and success-rule metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from habdf import (
    ApproachSummary,
    BoundingBox,
    ContractViolationError,
    FrameEval,
    box_distance,
    gt_distance,
    jaccard,
    success,
    summarize,
)

EDGES = [0.0, -0.0, 5e-324, 1e308, -1e308]
CENTER = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(EDGES))
SIDE = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 1e308]))
BOX = st.tuples(CENTER, CENTER, SIDE, SIDE)
MODERATE = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.0, 1e6),
                     st.floats(0.0, 1e6))


class TestJaccard:
    # The second box's ratio rounds a few ulps past 1 unless clamped.
    @pytest.mark.parametrize("b", [BoundingBox(10.0, 20.0, 30.0, 40.0),
                                   BoundingBox(100.995011, 50.9950114, 40.0, 30.0)])
    def test_identical_boxes(self, b):
        assert jaccard(b, b) == 1.0

    def test_disjoint_boxes(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(100.0, 0.0, 10.0, 10.0)
        assert jaccard(a, b) == 0.0

    def test_unit_offset_two_by_two(self):
        a = BoundingBox(0.0, 0.0, 2.0, 2.0)
        b = BoundingBox(1.0, 0.0, 2.0, 2.0)
        assert jaccard(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_area_union_defined_as_zero(self):
        a = BoundingBox(0.0, 0.0, 0.0, 0.0)
        assert jaccard(a, a) == 0.0

    def test_empty_overlap_scores_zero_when_the_other_axis_overflows(self):
        """A width overflowing to inf times an empty height overlap is NaN.
        A zero-area box, or a pair apart in height, scores 0, as a pair and
        in a stack."""
        flat = BoundingBox(1e308, 0.0, 0.0, 1.7e308)
        wide = BoundingBox(1e308, 0.0, 1.0, 1.7e308)
        assert jaccard(flat, flat) == jaccard(flat, wide) == 0.0
        assert jaccard(wide, BoundingBox(1e308, 100.0, 1.0, 1.7e308)) == 0.0
        stack = np.array([np.asarray(flat)] * 2)
        assert jaccard(stack, stack).tolist() == [0.0, 0.0]
        assert jaccard(wide, wide) == 1.0  # an inf - inf union still reads 1

    def test_nested_boxes(self):
        outer = BoundingBox(0.0, 0.0, 10.0, 10.0)
        inner = BoundingBox(0.0, 0.0, 5.0, 5.0)
        assert jaccard(outer, inner) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
            b = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
            assert jaccard(a, b) == pytest.approx(jaccard(b, a), abs=1e-15)

    def test_translating_away_never_increases_overlap(self):
        a = BoundingBox(0.0, 0.0, 20.0, 20.0)
        prev = 1.0
        for shift in np.linspace(0.0, 25.0, 26):
            j = jaccard(a, BoundingBox(shift, 0.0, 20.0, 20.0))
            assert j <= prev + 1e-12
            prev = j

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)),
                 2 * int(rng.integers(1, 16)), 2 * int(rng.integers(1, 16)))
            b = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)),
                 2 * int(rng.integers(1, 16)), 2 * int(rng.integers(1, 16)))
            want = oracles.raster_jaccard(a, b)
            assert jaccard(BoundingBox(*map(float, a)), BoundingBox(*map(float, b))) \
                == pytest.approx(want, abs=1e-9)


class TestGtDistance:
    def test_zero_at_truth(self):
        b = BoundingBox(5.0, 5.0, 10.0, 10.0)
        assert gt_distance(b, b) == 0.0

    def test_three_four_size_offset(self):
        a = BoundingBox(0.0, 0.0, 3.0, 4.0)
        gt = BoundingBox(0.0, 0.0, 0.0, 0.0)
        assert gt_distance(a, gt) == pytest.approx(5.0, abs=1e-12)

    def test_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = rng.uniform(0, 100, 4)
            b = rng.uniform(0, 100, 4)
            want = float(np.sqrt(np.sum((a - b) ** 2)))
            assert gt_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_finite_boxes_too_far_apart_are_inf_without_a_warning(self):
        far = np.array([[1e308, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]])
        near = np.array([[-1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gt_distance(far[0], near[0]) == np.inf
            assert gt_distance(far, near).tolist() == [np.inf, np.inf]


class TestSuccess:
    def test_boundaries_are_inclusive(self):
        assert success(0.5, 50.0) is True
        assert success(0.5, 0.0) is True
        assert success(1.0, 50.0) is True

    def test_either_failure_fails(self):
        assert success(0.49, 0.0) is False
        assert success(1.0, 51.0) is False
        assert success(0.49, 51.0) is False

    def test_domain_checks(self):
        with pytest.raises(ContractViolationError):
            success(1.5, 0.0)
        with pytest.raises(ContractViolationError):
            success(0.5, -1.0)


class TestSummarize:
    def test_all_success_run(self):
        evals = [FrameEval(t, 0.9, 5.0, True) for t in range(10)]
        rows = summarize({"fused": evals})
        assert rows[0].success_rate == 1.0
        assert rows[0].frames == 10

    def test_empty_input_is_an_error(self):
        with pytest.raises(ContractViolationError):
            summarize({})
        with pytest.raises(ContractViolationError):
            summarize({"fused": []})

    def test_mixed_run_matches_hand_averages(self):
        evals = [
            FrameEval(0, 0.8, 10.0, True),
            FrameEval(1, 0.6, 20.0, True),
            FrameEval(2, 0.2, 90.0, False),
            FrameEval(3, 0.4, 40.0, False),
        ]
        rows = summarize({"fused": evals, "raw": evals[:2]})
        by_name = {r.approach: r for r in rows}
        fused = by_name["fused"]
        assert fused.mean_jaccard == pytest.approx((0.8 + 0.6 + 0.2 + 0.4) / 4, abs=1e-12)
        assert fused.mean_distance == pytest.approx(40.0, abs=1e-12)
        assert fused.success_rate == pytest.approx(0.5, abs=1e-12)
        assert by_name["raw"].success_rate == 1.0

    def test_row_type(self):
        rows = summarize({"a": [FrameEval(0, 1.0, 0.0, True)]})
        assert isinstance(rows[0], ApproachSummary)


class TestFrameEvalContract:
    def test_rejects_out_of_range(self):
        with pytest.raises(ContractViolationError):
            FrameEval(0, 1.2, 0.0, True)
        with pytest.raises(ContractViolationError):
            FrameEval(0, 0.5, -2.0, True)


class TestStackedScores:
    """jaccard and gt_distance over (m, 4) stacks, as habdf eval scores a file,
    give per row exactly what one pair gives; jaccard is the Python-float
    formula bit for bit, signed zeros, overflow and NaN ratios included."""

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(BOX, BOX), min_size=1, max_size=8))
    def test_jaccard_equals_the_float_formula_per_pair_and_per_row(self, pairs):
        stacked = jaccard(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
        assert stacked.shape == (len(pairs),)
        for (a, b), row in zip(pairs, stacked):
            want = repr(oracles.box_jaccard(a, b))
            assert repr(jaccard(a, b)) == want
            assert repr(jaccard(BoundingBox(*a), BoundingBox(*b))) == want
            assert repr(float(row)) == want

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(MODERATE, MODERATE), min_size=1, max_size=8))
    def test_distance_rows_equal_box_distance_bit_for_bit(self, pairs):
        a, b = np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])
        for p, q, row in zip(a, b, gt_distance(a, b)):
            assert repr(float(row)) == repr(box_distance(p, q)) == repr(gt_distance(p, q))

    def test_one_box_against_a_stack_broadcasts(self):
        stack = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 0.0, 10.0, 10.0]])
        one = [0.0, 0.0, 10.0, 10.0]
        assert jaccard(one, stack).tolist() == [jaccard(one, s) for s in stack]
        assert gt_distance(one, stack).tolist() == [gt_distance(one, s) for s in stack]

    @pytest.mark.parametrize("bad, message", [
        ([[0, 0, 1, 1], [0, 0, -1, 1]], "box sides must be >= 0"),
        ([[0, 0, 1, 1], [np.nan, 0, 1, 1]], "box fields must be finite"),
        ([[0, 0, 1]], r"expected a box or an \(m, 4\) stack"),
        (np.zeros((2, 2, 4)), r"expected a box or an \(m, 4\) stack"),
    ])
    def test_stacks_are_checked_as_boxes(self, bad, message):
        for score in (jaccard, gt_distance):
            with pytest.raises(ContractViolationError, match=message):
                score(bad, np.zeros((len(bad), 4)))

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2), (1, 3)])
    def test_stacks_of_different_lengths_are_refused(self, m, k):
        for score in (jaccard, gt_distance):
            with pytest.raises(ContractViolationError,
                               match=f"cannot pair a stack of {m} boxes with {k}"):
                score(np.zeros((m, 4)), np.zeros((k, 4)))


class TestScalarGuards:
    """success and FrameEval guard Python floats and numpy scalars alike."""

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_success(self, kind):
        assert success(kind(0.5), kind(50.0)) is True
        with pytest.raises(ContractViolationError, match=r"jaccard must be in \[0, 1\]"):
            success(kind("nan"), kind(1.0))
        for d in ("nan", -1.0):
            with pytest.raises(ContractViolationError, match="distance must be >= 0"):
                success(kind(0.5), kind(d))

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_frame_eval(self, kind):
        assert FrameEval(0, kind(0.5), kind(3.0), True).distance == 3.0
        with pytest.raises(ContractViolationError, match=r"jaccard must be in \[0, 1\]"):
            FrameEval(0, kind("nan"), kind(3.0), True)
        for d in ("inf", "nan", -1.0):
            with pytest.raises(ContractViolationError, match="distance must be finite >= 0"):
                FrameEval(0, kind(0.5), kind(d), True)
