import numpy as np
import pytest

from seqshift.summaries import (
    LinearSoftmaxModel,
    SummaryStatistic,
    apply_summary,
    apply_summary_rows,
    cross_entropy_loss,
    identity,
    squared_error_loss,
)


class TestApplySummary:
    def test_identity_passes_through(self):
        stat = identity(2)
        out = apply_summary(stat, (0.3, -1.2))
        assert np.array_equal(out, [0.3, -1.2])

    def test_model_loss_squared_error(self):
        stat = SummaryStatistic(
            kind="model_loss", out_dim=1, model=lambda x: 0.5, loss=squared_error_loss
        )
        out = apply_summary(stat, [0.0], y=1.0)
        assert out == pytest.approx([0.25])

    def test_zero_projection_annihilates(self):
        stat = SummaryStatistic(
            kind="affine_projection", out_dim=2, projection=np.zeros((2, 3))
        )
        assert np.array_equal(apply_summary(stat, [1.0, 2.0, 3.0]), [0.0, 0.0])

    def test_projection_dimension_mismatch(self):
        stat = SummaryStatistic(
            kind="affine_projection", out_dim=1, projection=np.ones((1, 3))
        )
        with pytest.raises(ValueError, match="dimension"):
            apply_summary(stat, [1.0, 2.0])

    def test_label_required_iff_model_loss(self):
        loss_stat = SummaryStatistic(
            kind="model_loss", out_dim=1, model=lambda x: 0.0, loss=squared_error_loss
        )
        with pytest.raises(ValueError, match="label"):
            apply_summary(loss_stat, [1.0])
        with pytest.raises(ValueError, match="label"):
            apply_summary(identity(1), [1.0], y=0.0)

    def test_non_finite_output_rejected(self):
        stat = SummaryStatistic(kind="model_output", out_dim=1, model=lambda x: np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            apply_summary(stat, [1.0])

    def test_pure_function(self, rng):
        proj = rng.normal(size=(2, 4))
        stat = SummaryStatistic(kind="affine_projection", out_dim=2, projection=proj)
        x = rng.normal(size=4)
        assert np.array_equal(apply_summary(stat, x), apply_summary(stat, x))

    def test_out_dim_always_declared(self, rng):
        proj = rng.normal(size=(3, 5))
        stat = SummaryStatistic(kind="affine_projection", out_dim=3, projection=proj)
        for _ in range(1000):
            out = apply_summary(stat, rng.normal(size=5))
            assert out.shape == (3,)

    def test_wrong_output_shape_rejected(self):
        stat = SummaryStatistic(
            kind="model_output", out_dim=2, model=lambda x: np.array([1.0])
        )
        with pytest.raises(ValueError, match="shape"):
            apply_summary(stat, [1.0])

    @pytest.mark.parametrize("out_dim", [2.5, 0, True])
    def test_out_dim_must_be_a_positive_integer(self, out_dim):
        with pytest.raises(ValueError, match="^out_dim must be "):
            SummaryStatistic(kind="identity", out_dim=out_dim)


class TestApplySummaryRows:
    @pytest.mark.parametrize("kind", ["identity", "affine_projection", "model_output", "model_loss"])
    def test_rows_equal_single_samples_bitwise(self, kind, rng):
        model = LinearSoftmaxModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        stat = {
            "identity": identity(4),
            "affine_projection": SummaryStatistic(
                kind="affine_projection", out_dim=3, projection=rng.normal(size=(3, 4))
            ),
            "model_output": SummaryStatistic(kind="model_output", out_dim=3, model=model),
            "model_loss": SummaryStatistic(
                kind="model_loss", out_dim=1, model=model, loss=cross_entropy_loss
            ),
        }[kind]
        X = rng.normal(size=(50, 4))
        y = rng.integers(3, size=50) if kind == "model_loss" else None
        rows = apply_summary_rows(stat, X, y)
        singles = [apply_summary(stat, x, None if y is None else y[i]) for i, x in enumerate(X)]
        assert rows.shape == (50, stat.out_dim)
        assert np.array_equal(rows, np.array(singles))

    def test_checks_hold_for_rows(self):
        loss_stat = SummaryStatistic(
            kind="model_loss", out_dim=1, model=lambda x: 0.0, loss=squared_error_loss
        )
        with pytest.raises(ValueError, match="label"):
            apply_summary_rows(loss_stat, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="label"):
            apply_summary_rows(identity(1), np.zeros((2, 1)), y=[0.0, 1.0])
        with pytest.raises(ValueError, match="rows"):
            apply_summary_rows(identity(1), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            apply_summary_rows(identity(2), np.zeros((3, 1)))
        flaky = SummaryStatistic(kind="model_output", out_dim=1, model=lambda x: np.inf if x[0] == 0 else x[0])
        with pytest.raises(ValueError, match="non-finite"):
            apply_summary_rows(flaky, np.array([[1.0], [0.0]]))
        ragged = SummaryStatistic(kind="model_output", out_dim=1, model=lambda x: x[: int(x[0])])
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            apply_summary_rows(ragged, np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestConstruction:
    def test_model_required(self):
        with pytest.raises(ValueError, match="model"):
            SummaryStatistic(kind="model_output", out_dim=1)

    def test_loss_required(self):
        with pytest.raises(ValueError, match="loss"):
            SummaryStatistic(kind="model_loss", out_dim=1, model=lambda x: 0.0)

    def test_model_loss_is_scalar(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            SummaryStatistic(
                kind="model_loss", out_dim=2, model=lambda x: 0.0, loss=squared_error_loss
            )

    def test_projection_shape_checked(self):
        with pytest.raises(ValueError, match="projection"):
            SummaryStatistic(kind="affine_projection", out_dim=2, projection=np.ones((3, 2)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown summary kind"):
            SummaryStatistic(kind="pca", out_dim=1)


class TestStubs:
    def test_linear_softmax_simplex(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        probs = model(rng.normal(size=4))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_linear_softmax_shape_check(self):
        with pytest.raises(ValueError):
            LinearSoftmaxModel(np.ones((2, 3)), np.ones(3))

    def test_cross_entropy(self):
        assert cross_entropy_loss(1, [0.5, 0.25, 0.25]) == pytest.approx(np.log(4.0))
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy_loss(3, [0.5, 0.5])
