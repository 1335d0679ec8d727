"""Synthetic summary streams with a sudden change point.

A stream follows distribution ``pre`` up to (but excluding) the change
point and ``post`` from the change point on.  Generation is addressed per
index (see :mod:`seqshift.rng`), so chunked, whole, and parallel
generation all agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # subpackages via attributes: each loads on first use, not at import

from . import rng
from .statistics import _check_count

_FAMILIES = ("gaussian", "gaussian-mixture", "uniform")


@dataclass(frozen=True)
class DistributionSpec:
    """Parametric family generating points in summary space.

    ``means`` and ``variances`` have shape ``(components, dim)``;
    ``weights`` is a simplex vector over components.  Non-mixture families
    have a single component.  The uniform family is moment-parameterised:
    a box centred at ``means`` with half-width ``sqrt(3 * variance)`` per
    coordinate, so means/variances mean the same thing across families.
    """

    family: str
    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if means.shape != variances.shape:
            raise ValueError(
                f"means shape {means.shape} != variances shape {variances.shape}"
            )
        if weights.shape != (means.shape[0],):
            raise ValueError(
                f"weights length {weights.shape[0]} != number of components {means.shape[0]}"
            )
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(variances)):
            raise ValueError("means and variances must be finite")
        if np.any(variances <= 0.0):
            raise ValueError("variance entries must be strictly positive")
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if self.family != "gaussian-mixture" and means.shape[0] != 1:
            raise ValueError(f"family {self.family!r} takes exactly one component")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim", means.shape[1])

    @classmethod
    def gaussian(cls, mean, variance) -> "DistributionSpec":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        variance = np.atleast_1d(np.asarray(variance, dtype=np.float64))
        return cls("gaussian", mean[None, :], variance[None, :], np.array([1.0]))

    @classmethod
    def gaussian_mixture(cls, means, variances, weights) -> "DistributionSpec":
        return cls("gaussian-mixture", np.asarray(means), np.asarray(variances), weights)

    @classmethod
    def uniform(cls, mean, variance) -> "DistributionSpec":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        variance = np.atleast_1d(np.asarray(variance, dtype=np.float64))
        return cls("uniform", mean[None, :], variance[None, :], np.array([1.0]))

    @property
    def raw_words(self) -> int:
        """64-bit words one sample consumes (before block rounding)."""
        if self.family == "gaussian-mixture":
            return 1 + self.dim
        return self.dim

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map per-index uniforms (rows) to samples of shape (count, dim)."""
        if self.family == "gaussian":
            z = scipy.special.ndtri(u[:, : self.dim])
            return self.means[0] + np.sqrt(self.variances[0]) * z
        if self.family == "uniform":
            half = np.sqrt(3.0 * self.variances[0])
            return self.means[0] - half + u[:, : self.dim] * (2.0 * half)
        # gaussian-mixture: word 0 picks the component, the rest drive the draw
        comp = np.searchsorted(np.cumsum(self.weights), u[:, 0], side="right")
        comp = np.minimum(comp, len(self.weights) - 1)
        z = scipy.special.ndtri(u[:, 1 : 1 + self.dim])
        return self.means[comp] + np.sqrt(self.variances[comp]) * z


@dataclass(frozen=True)
class ChangePointModel:
    """Stream model: ``pre`` before the change point, ``post`` from it on.

    ``change_point`` is a 1-based step index; ``math.inf`` means the
    stream never changes.
    """

    pre: DistributionSpec
    post: DistributionSpec
    change_point: float = math.inf

    def __post_init__(self):
        if self.pre.dim != self.post.dim:
            raise ValueError(
                f"pre dim {self.pre.dim} != post dim {self.post.dim}"
            )
        cp = self.change_point
        if not (cp == math.inf or (float(cp).is_integer() and cp >= 1)):
            raise ValueError("change_point must be a positive integer or math.inf")

    @property
    def dim(self) -> int:
        return self.pre.dim

    @property
    def words_per_index(self) -> int:
        # Shared budget across pre and post so the per-index derivation does
        # not depend on which side of the change point an index falls.
        return rng.words_needed(max(self.pre.raw_words, self.post.raw_words))


def null_model(dist: DistributionSpec) -> ChangePointModel:
    """A never-changing stream drawn from ``dist``."""
    return ChangePointModel(pre=dist, post=dist, change_point=math.inf)


def generate_chunk(
    model: ChangePointModel,
    start: int,
    count: int,
    master_seed: int,
    stream_id: int = 0,
) -> np.ndarray:
    """Samples for steps ``start .. start + count - 1`` (1-based steps).

    Equals the corresponding slice of :func:`generate_stream` bitwise.
    """
    _check_count("start", start, 1)
    _check_count("count", count, 1)
    key = rng.philox_key(master_seed, rng.LANE_STREAM, stream_id)
    u = rng.uniform_block(key, start - 1, count, model.words_per_index)
    cp = model.change_point
    if cp == math.inf or cp > start + count - 1:
        return model.pre.sample_from_uniforms(u)
    if cp <= start:
        return model.post.sample_from_uniforms(u)
    split = int(cp) - start  # first post-change row
    out = np.empty((count, model.dim), dtype=np.float64)
    out[:split] = model.pre.sample_from_uniforms(u[:split])
    out[split:] = model.post.sample_from_uniforms(u[split:])
    return out


def sample_at(
    model: ChangePointModel, t: int, master_seed: int, stream_id: int = 0
) -> np.ndarray:
    """The summary at step ``t`` (1-based), shape ``(dim,)``."""
    return generate_chunk(model, t, 1, master_seed, stream_id)[0]


def generate_stream(
    model: ChangePointModel, length: int, master_seed: int, stream_id: int = 0
) -> np.ndarray:
    """The first ``length`` summaries of the stream, shape ``(length, dim)``."""
    return generate_chunk(model, 1, length, master_seed, stream_id)


def draw_reference(
    dist: DistributionSpec, size: int, master_seed: int, stream_id: int = 0
) -> np.ndarray:
    """Reference draws, shape ``(size, dim)``, on the reference seed lane."""
    _check_count("size", size, 1)
    key = rng.philox_key(master_seed, rng.LANE_REFERENCE, stream_id)
    u = rng.uniform_block(key, 0, size, rng.words_needed(dist.raw_words))
    return dist.sample_from_uniforms(u)


def load_stream_file(path) -> np.ndarray:
    """Read a stream file: one summary per line, comma-separated reals.

    An optional header line ``# dim=<d>`` declares the dimension; every
    row must match it.
    """
    declared = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("dim="):
                    try:
                        declared = int(body[4:])
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}:{lineno}: unparseable header: {line!r}"
                        ) from exc
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable row: {line!r}") from exc
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: stream file contains no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent dimension")
    if declared is not None and declared != width:
        raise ValueError(f"{path}: header dim={declared} but rows have dimension {width}")
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: stream contains non-finite values")
    return data


def save_stream_file(path, data: np.ndarray) -> None:
    """Write a stream file in the format :func:`load_stream_file` reads."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={data.shape[1]}\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
