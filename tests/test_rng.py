"""Tests for repro.common.rng — determinism and distribution helpers."""

import random

import pytest

from repro.common.rng import make_rng, perturbed_seeds, weighted_choice, zipf_rank


class TestMakeRng:
    def test_same_stream_same_sequence(self):
        a = make_rng(7, "workload", 3)
        b = make_rng(7, "workload", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        a = make_rng(7, "workload", 3)
        b = make_rng(7, "workload", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = make_rng(1, "x")
        b = make_rng(2, "x")
        assert a.random() != b.random()

    def test_string_streams_are_stable(self):
        # hash() is salted for strings; make_rng must not depend on it.
        rng = make_rng(0, "backoff")
        assert rng.randrange(1 << 30) == make_rng(0, "backoff").randrange(1 << 30)


class TestPerturbedSeeds:
    def test_count_and_determinism(self):
        seeds = perturbed_seeds(42, 5)
        assert len(seeds) == 5
        assert seeds == perturbed_seeds(42, 5)

    def test_all_distinct(self):
        seeds = perturbed_seeds(42, 10)
        assert len(set(seeds)) == 10

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            perturbed_seeds(42, 0)


class TestWeightedChoice:
    def test_zero_weight_never_chosen(self):
        rng = random.Random(0)
        picks = {weighted_choice(rng, ["a", "b"], [0.0, 1.0])
                 for _ in range(50)}
        assert picks == {"b"}

    def test_rough_proportions(self):
        rng = random.Random(0)
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert counts["a"] > counts["b"] * 2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a"], [-1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a", "b"], [0.0, 0.0])


class TestZipfRank:
    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(200):
            assert 0 <= zipf_rank(rng, 10, skew=1.0) < 10

    def test_skew_prefers_low_ranks(self):
        rng = random.Random(1)
        samples = [zipf_rank(rng, 100, skew=1.2) for _ in range(3000)]
        low = sum(1 for s in samples if s < 10)
        high = sum(1 for s in samples if s >= 90)
        assert low > high * 3

    def test_uniform_when_skew_zero(self):
        rng = random.Random(1)
        samples = [zipf_rank(rng, 10, skew=0.0) for _ in range(5000)]
        counts = [samples.count(i) for i in range(10)]
        assert min(counts) > 300  # roughly uniform

    def test_single_item(self):
        assert zipf_rank(random.Random(0), 1) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_rank(random.Random(0), 0)
        with pytest.raises(ValueError):
            zipf_rank(random.Random(0), 5, skew=-1)

    def test_matches_uncached_reference(self):
        """Cached harmonic bounds draw exactly what a per-call rebuild did."""
        def reference(rng, n, skew):
            total = 0.0
            bounds = []
            for rank in range(1, n + 1):
                total += 1.0 / (rank ** skew)
                bounds.append(total)
            x = rng.random() * total
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if x < bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        shapes = [(125, 0.4), (105, 0.1), (10, 1.0), (1, 0.0), (7, 0.0)]
        ours, theirs = random.Random(7), random.Random(7)
        pick = random.Random(11)
        for _ in range(2000):
            n, skew = shapes[pick.randrange(len(shapes))]
            assert zipf_rank(ours, n, skew) == reference(theirs, n, skew)
        assert ours.random() == theirs.random()
