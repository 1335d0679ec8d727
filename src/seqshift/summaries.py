"""Summary statistics projecting raw instances into summary space.

The detector never sees raw features directly; every instance is pushed
through one of these projections first.  :func:`apply_summary_rows`
projects a block of instances at once (the Monte Carlo harness summarises
whole stream blocks), and :func:`apply_summary` is its one-row case, so
both give the same bits.  Models and losses are injected as black-box
callables and must be side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

KINDS = ("identity", "model_output", "model_loss", "affine_projection")


@dataclass(frozen=True)
class SummaryStatistic:
    """Projection from raw instances to fixed-dimension real summaries.

    kind:
        ``identity``          -- the features unchanged.
        ``model_output``      -- ``model(x)``.
        ``model_loss``        -- ``loss(y, model(x))`` as a 1-dim summary;
                                 requires a label at apply time.
        ``affine_projection`` -- ``projection @ x``.
    """

    kind: str
    out_dim: int
    model: Optional[Callable] = None
    loss: Optional[Callable] = None
    projection: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown summary kind {self.kind!r}; expected one of {KINDS}")
        if self.out_dim < 1:
            raise ValueError("out_dim must be a positive integer")
        if self.kind in ("model_output", "model_loss") and self.model is None:
            raise ValueError(f"summary kind {self.kind!r} requires a model")
        if self.kind == "model_loss":
            if self.loss is None:
                raise ValueError("summary kind 'model_loss' requires a loss")
            if self.out_dim != 1:
                raise ValueError("model_loss summaries are 1-dimensional")
        if self.kind == "affine_projection":
            if self.projection is None:
                raise ValueError("summary kind 'affine_projection' requires a projection matrix")
            proj = np.asarray(self.projection, dtype=np.float64)
            if proj.ndim != 2 or proj.shape[0] != self.out_dim:
                raise ValueError(
                    f"projection must have shape (out_dim={self.out_dim}, in_dim); got {proj.shape}"
                )
            object.__setattr__(self, "projection", proj)


def identity(dim: int = 1) -> SummaryStatistic:
    return SummaryStatistic(kind="identity", out_dim=dim)


def apply_summary(stat: SummaryStatistic, x, y=None) -> np.ndarray:
    """Project one raw instance onto a summary vector of length ``out_dim``;
    the one-row case of :func:`apply_summary_rows`."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return apply_summary_rows(stat, x[None], None if y is None else [y])[0]


def apply_summary_rows(stat: SummaryStatistic, X, y=None) -> np.ndarray:
    """Project raw instances, one per row of ``X`` (rows, in_dim), onto
    summaries of shape (rows, out_dim).

    Each row's summary is the same bits whatever rows share the call: a
    projection multiplies row by row, and models and losses are called
    once per row.  ``y`` (one label per row) must be supplied exactly when
    the kind is ``model_loss``; labels are generally unavailable at
    detection time, so the other kinds refuse them to catch plumbing
    mistakes early.
    """
    if stat.kind == "model_loss":
        if y is None:
            raise ValueError("model_loss summary requires a label")
    elif y is not None:
        raise ValueError(f"summary kind {stat.kind!r} does not accept a label")

    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"raw instances must be rows of shape (rows, in_dim); got {X.shape}")
    if stat.kind == "identity":
        out = X
    elif stat.kind == "affine_projection":
        if X.shape[1] != stat.projection.shape[1]:
            raise ValueError(
                f"projection expects input dimension {stat.projection.shape[1]}, got {X.shape[1]}"
            )
        # per-row matrix-vector products: the bits of ``projection @ x``
        out = np.matmul(stat.projection, X[:, :, None])[:, :, 0]
    else:
        if stat.kind == "model_output":
            outs = [stat.model(x) for x in X]
        else:
            outs = [stat.loss(label, stat.model(x)) for x, label in zip(X, y, strict=True)]
        outs = [np.atleast_1d(np.asarray(o, dtype=np.float64)) for o in outs]
        bad = [o.shape for o in outs if o.shape != (stat.out_dim,)]
        if bad:
            raise ValueError(f"summary produced shape {bad[0]}, declared out_dim {stat.out_dim}")
        out = np.array(outs).reshape(len(X), stat.out_dim)

    if out.shape[1:] != (stat.out_dim,):
        raise ValueError(
            f"summary produced shape {out.shape[1:]}, declared out_dim {stat.out_dim}"
        )
    if not np.isfinite(out).all():
        raise ValueError("summary produced non-finite values")
    return out


class LinearSoftmaxModel:
    """Config-defined stub classifier: softmax(W x + b).

    Stands in for a trained model when experiments need a model_output or
    model_loss summary; no training happens here.  Plain picklable class
    so summaries built on it can cross process boundaries.
    """

    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (k, d) and bias (k,)")
        self.n_classes = self.weights.shape[0]

    def __call__(self, x):
        logits = self.weights @ np.asarray(x, dtype=np.float64) + self.bias
        logits -= logits.max()
        e = np.exp(logits)
        return e / e.sum()


def squared_error_loss(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    return float(np.sum((y - y_hat) ** 2))


def cross_entropy_loss(y, probs) -> float:
    """Negative log-likelihood of integer class ``y`` under ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = int(y)
    if not 0 <= idx < probs.shape[0]:
        raise ValueError(f"label {idx} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(probs[idx], 1e-300)))
