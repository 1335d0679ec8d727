import math

import numpy as np
import pytest

from seqshift.batch import BatchMmdEngine, make_batch_engine
from seqshift.statistics import (
    Kernel,
    ReferenceSet,
    SlidingWindow,
    ks_distance,
    mean_difference,
    median_heuristic,
    mmd2_u,
)


def brute_ks(ref_values, win_values):
    """Independent double-loop oracle: scan |F - G| at every merged point."""
    n, m = len(ref_values), len(win_values)
    best = 0.0
    for u in list(ref_values) + list(win_values):
        f = sum(1 for r in ref_values if r <= u) / n
        g = sum(1 for v in win_values if v <= u) / m
        if abs(f - g) > best:
            best = abs(f - g)
    return best


def kernel_eval(kernel, x, y):
    x = np.atleast_1d(x)
    y = np.atleast_1d(y)
    if kernel.kind == "rbf":
        return math.exp(-float(np.sum((x - y) ** 2)) / (2.0 * kernel.bandwidth**2))
    if kernel.kind == "linear":
        return float(np.dot(x, y))
    return 1.0


def brute_mmd2_u(kernel, X, Y):
    """Independent double-loop oracle for the unbiased squared-MMD estimate."""
    n, m = len(X), len(Y)
    a = sum(kernel_eval(kernel, X[i], X[j]) for i in range(n) for j in range(n) if i != j)
    b = sum(kernel_eval(kernel, Y[i], Y[j]) for i in range(m) for j in range(m) if i != j)
    c = sum(kernel_eval(kernel, X[i], Y[j]) for i in range(n) for j in range(m))
    return a / (n * (n - 1)) + b / (m * (m - 1)) - 2.0 * c / (n * m)


def window_from(values, capacity=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    win = SlidingWindow(capacity=capacity or len(values), dim=values.shape[1])
    for row in values:
        win.push(row)
    return win


ONE_ROW = np.zeros(1, dtype=np.intp)


def engine_from(statistic, reference, values, w=None, kernel=None):
    """A one-row engine (the detector's) fed ``values`` in order."""
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    engine = make_batch_engine(statistic, reference, w or len(values), 1, kernel)
    for row in values:
        engine.push_column(row[None, :], None)
    return engine


class TestSlidingWindowBuffer:
    def test_fifo_eviction(self):
        win = window_from([1.0, 2.0, 3.0], capacity=3)
        win.push(4.0)
        assert np.array_equal(win.scalar_values(), [2.0, 3.0, 4.0])

    def test_warmup_growth(self):
        win = SlidingWindow(capacity=3)
        win.push(1.0)
        win.push(2.0)
        assert len(win) == 2
        assert np.array_equal(win.scalar_values(), [1.0, 2.0])

    def test_dimension_mismatch_rejected(self):
        win = SlidingWindow(capacity=3, dim=2)
        with pytest.raises(ValueError, match="shape"):
            win.push([1.0])

    def test_non_finite_rejected(self):
        win = SlidingWindow(capacity=2)
        with pytest.raises(ValueError, match="finite"):
            win.push(np.nan)


class TestKsDistance:
    def test_identical_multisets_zero(self):
        ref = ReferenceSet([0.5, 1.5, 2.5])
        win = window_from([2.5, 0.5, 1.5])
        assert ks_distance(ref, win) == 0.0

    def test_disjoint_supports_one(self):
        ref = ReferenceSet([0.0, 1.0])
        win = window_from([2.0, 3.0])
        assert ks_distance(ref, win) == 1.0

    def test_interleaved_example(self):
        ref = ReferenceSet([1.0, 2.0, 3.0, 4.0])
        win = window_from([2.5, 3.5])
        assert ks_distance(ref, win) == 0.5

    def test_matches_brute_force_exactly(self, rng):
        """Exact agreement with the double-loop oracle, ties included."""
        for _ in range(300):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, 51))
            ref_vals = np.round(rng.normal(size=n), 1)
            win_vals = np.round(rng.normal(size=m), 1)
            ref = ReferenceSet(ref_vals)
            want = brute_ks(ref_vals, win_vals)
            assert ks_distance(ref, window_from(win_vals)) == want
            assert engine_from("ks", ref, win_vals).statistics(ONE_ROW)[0] == want

    def test_bounded_and_zero_iff_equal_ecdf(self, rng):
        for _ in range(100):
            ref_vals = rng.normal(size=int(rng.integers(2, 30)))
            win_vals = rng.normal(size=int(rng.integers(1, 30)))
            ref = ReferenceSet(ref_vals)
            d = ks_distance(ref, window_from(win_vals))
            assert 0.0 <= d <= 1.0
        ref_vals = rng.normal(size=10)
        ref = ReferenceSet(ref_vals)
        doubled = window_from(np.repeat(ref_vals, 2))
        assert ks_distance(ref, doubled) == 0.0

    def test_cached_counts_agree_with_fresh(self, rng):
        """The engine's stored reference counts give the plain KS exactly."""
        ref = ReferenceSet(rng.normal(size=50))
        engine = make_batch_engine("ks", ref, 8, 1)
        plain = SlidingWindow(capacity=8)
        for i, v in enumerate(rng.normal(size=100)):
            engine.push_column(np.array([[v]]), None)
            plain.push(v)
            if i >= 7:
                assert engine.statistics(ONE_ROW)[0] == ks_distance(ref, plain)

    def test_multivariate_rejected(self, rng):
        ref = ReferenceSet(rng.normal(size=(10, 2)))
        win = window_from(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="scalar"):
            ks_distance(ref, win)

    def test_empty_window_rejected(self):
        ref = ReferenceSet([0.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            ks_distance(ref, SlidingWindow(capacity=3))


class TestMeanDifference:
    def test_identical_means_zero(self):
        ref = ReferenceSet([1.0, 3.0])
        assert mean_difference(ref, window_from([2.0, 2.0])) == 0.0

    def test_hand_example(self):
        ref = ReferenceSet([1.0, 2.0, 3.0])
        assert mean_difference(ref, window_from([2.0, 4.0])) == -1.0

    def test_translation(self):
        ref_vals = np.array([1.0, 2.0, 3.0, 4.0])
        ref = ReferenceSet(ref_vals)
        assert mean_difference(ref, window_from(ref_vals + 2.0)) == -2.0


class TestMmd2U:
    def test_linear_hand_example(self):
        ref = ReferenceSet([0.0, 2.0])
        win = window_from([1.0, 1.0])
        assert mmd2_u(ref, win, Kernel("linear")) == -1.0

    def test_identical_degenerate_rbf_zero(self):
        ref = ReferenceSet([0.0, 0.0])
        win = window_from([0.0, 0.0])
        assert mmd2_u(ref, win, Kernel("rbf", bandwidth=1.0)) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(2, 15))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            Y = rng.normal(size=(m, d))
            kernel = Kernel("rbf", bandwidth=float(rng.uniform(0.5, 3.0)))
            got = mmd2_u(ReferenceSet(X), window_from(Y), kernel)
            want = brute_mmd2_u(kernel, X, Y)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_symmetry_under_role_exchange(self, rng):
        X = rng.normal(size=(8, 2))
        Y = rng.normal(size=(6, 2))
        kernel = Kernel("rbf", bandwidth=1.3)
        forward = mmd2_u(ReferenceSet(X), window_from(Y), kernel)
        backward = mmd2_u(ReferenceSet(Y), window_from(X), kernel)
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-14)

    def test_unbiased_under_null(self):
        """Mean over 1000 independent same-distribution draws is ~0."""
        rng = np.random.default_rng(7)
        kernel = Kernel("rbf", bandwidth=1.0)
        values = np.empty(1000)
        for i in range(1000):
            X = rng.normal(size=(12, 1))
            Y = rng.normal(size=(10, 1))
            values[i] = mmd2_u(ReferenceSet(X), window_from(Y), kernel)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean()) < 4 * se

    def test_too_small_sides_rejected(self, rng):
        kernel = Kernel("rbf", bandwidth=1.0)
        ref = ReferenceSet(rng.normal(size=5))
        win = SlidingWindow(capacity=4)
        win.push(0.0)
        with pytest.raises(ValueError, match="at least 2"):
            mmd2_u(ref, win, kernel)


def fresh_kernel_sums(kernel, reference, vals):
    """Window self-sum over ordered pairs i != j and reference cross sum."""
    K = kernel.matrix(vals, vals)
    return K.sum() - np.trace(K), kernel.matrix(reference.values, vals).sum()


class TestIncrementalKernelSums:
    """The MMD engine's running sums against the plain recomputation."""

    def test_push_matches_brute_force_sums(self, rng):
        """Running window/cross sums track full recomputation at 1e-9."""
        ref = ReferenceSet(rng.normal(size=(20, 2)))
        kernel = Kernel("rbf", bandwidth=1.5)
        engine = make_batch_engine("mmd", ref, 6, 1, kernel)
        win = SlidingWindow(capacity=6, dim=2)
        for v in rng.normal(size=(60, 2)):
            engine.push_column(v[None, :], None)
            win.push(v)
            b_want, c_want = fresh_kernel_sums(kernel, ref, win.values())
            assert engine._b_sums[0] == pytest.approx(b_want, rel=1e-9, abs=1e-12)
            assert engine._c_sums[0] == pytest.approx(c_want, rel=1e-9, abs=1e-12)

    def test_remove_then_readd_is_involution(self, rng):
        ref = ReferenceSet(rng.normal(size=10))
        kernel = Kernel("rbf", bandwidth=1.0)
        values = rng.normal(size=4)
        engine = engine_from("mmd", ref, values, kernel=kernel)
        b_before, c_before = engine._b_sums[0], engine._c_sums[0]
        engine.push_column(values[:1, None], None)  # evicts values[0], adds it back
        assert engine._b_sums[0] == pytest.approx(b_before, abs=1e-12)
        assert engine._c_sums[0] == pytest.approx(c_before, abs=1e-12)

    def test_thousand_slides_match_fresh_recompute(self, rng):
        ref = ReferenceSet(rng.normal(size=(30, 1)))
        kernel = Kernel("rbf", bandwidth=float(median_heuristic(ref)))
        values = rng.normal(size=1000)
        engine = engine_from("mmd", ref, values, w=8, kernel=kernel)
        incremental = engine.statistics(ONE_ROW)[0]
        fresh = mmd2_u(ref, window_from(values[-8:]), kernel)
        assert incremental == pytest.approx(fresh, rel=1e-9, abs=1e-12)

    def test_periodic_refresh_triggers(self, rng, monkeypatch):
        monkeypatch.setattr(BatchMmdEngine, "_REFRESH_EVERY", 5)
        ref = ReferenceSet(rng.normal(size=10))
        kernel = Kernel("rbf", bandwidth=1.0)
        values = rng.normal(size=12)
        engine = engine_from("mmd", ref, values, w=4, kernel=kernel)
        assert engine._pushes_since_refresh < 5
        b_want, c_want = fresh_kernel_sums(kernel, ref, values[-4:, None])
        assert engine._b_sums[0] == pytest.approx(b_want, rel=1e-9, abs=1e-12)
        assert engine._c_sums[0] == pytest.approx(c_want, rel=1e-9, abs=1e-12)


class TestMedianHeuristic:
    def test_hand_example(self):
        assert median_heuristic(ReferenceSet([0.0, 1.0, 3.0])) == 2.0

    def test_degenerate_identical_points(self):
        with pytest.raises(ValueError, match="bandwidth"):
            median_heuristic(ReferenceSet([2.0, 2.0, 2.0]))

    def test_scaling_homogeneity(self, rng):
        points = rng.normal(size=(30, 2))
        base = median_heuristic(ReferenceSet(points))
        scaled = median_heuristic(ReferenceSet(3.0 * points))
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


class TestReferenceSet:
    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            ReferenceSet([1.0])

    def test_requires_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ReferenceSet([1.0, np.inf])

    def test_kernel_self_sum_matches_brute(self, rng):
        X = rng.normal(size=(25, 2))
        ref = ReferenceSet(X)
        kernel = Kernel("rbf", bandwidth=0.8)
        want = sum(
            kernel_eval(kernel, X[i], X[j])
            for i in range(25)
            for j in range(25)
            if i != j
        )
        assert ref.kernel_self_sum(kernel) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "kernel", [Kernel("rbf", bandwidth=1.3), Kernel("linear")], ids=["rbf", "linear"]
    )
    def test_atom_cross_is_the_point_path(self, rng, kernel):
        """At n=1500 the shared kernel pass spans two 1024-row blocks.  The
        atom cross sums equal ``cross_sums`` of the reference's own values
        bit for bit, and both tables come out the same whichever is asked
        for first."""
        values = rng.normal(size=(1500, 3))
        self_sum_first, atoms_first = ReferenceSet(values), ReferenceSet(values)
        self_sum = self_sum_first.kernel_self_sum(kernel)
        atom_cross = atoms_first.atom_cross(kernel)
        want = atoms_first.cross_sums(atoms_first.values, kernel)
        assert np.array_equal(atom_cross, want)
        assert np.array_equal(self_sum_first.atom_cross(kernel), want)
        assert atoms_first.kernel_self_sum(kernel) == self_sum

    def test_atom_counts_are_the_point_path(self, rng):
        values = np.round(rng.normal(size=1500), 1)  # ties: left and right counts differ
        ref = ReferenceSet(values)
        left, right = ref.atom_counts
        want_left, want_right = ref.cdf_counts(ref.values[:, 0])
        assert np.array_equal(left, want_left) and np.array_equal(right, want_right)
        assert np.any(left != right)
        assert ref.atom_counts is ref.atom_counts

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Kernel("rbf")
        with pytest.raises(ValueError, match="no bandwidth"):
            Kernel("linear", bandwidth=1.0)
        # both make every MMD^2 exactly 0, so a detector could never fire
        with pytest.raises(ValueError, match="finite bandwidth"):
            Kernel("rbf", bandwidth=float("inf"))
        with pytest.raises(ValueError, match="bandwidth > 0, got True"):
            Kernel("rbf", True)
        for kind in ("polynomial", "constant"):
            with pytest.raises(ValueError, match="unknown kernel"):
                Kernel(kind)
