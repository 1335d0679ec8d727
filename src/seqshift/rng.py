"""Counter-based randomness with per-index addressing.

Every random draw in this package is a pure function of
``(master_seed, lane, stream_id, index)``.  A Philox counter-based bit
generator lets us jump straight to the words belonging to any index, so a
stream can be produced whole, in chunks, or element by element -- in any
order, on any number of workers -- and come out bitwise identical.

Layout: each stream index owns a fixed budget of 64-bit words (a multiple
of 4, the Philox block size), so index ``t`` occupies counter blocks
``[t * words // 4, (t + 1) * words // 4)``.
"""

from __future__ import annotations

import numpy as np

from .statistics import _check_count

# Seed-derivation lanes keep independent uses of the master seed from
# colliding (deployment streams, reference draws, calibration bootstrap,
# permutation shuffles).
LANE_STREAM = 0
LANE_REFERENCE = 1
LANE_CALIBRATION = 2
LANE_PERMUTATION = 3

# random() maps one uint64 word to one double in [0, 1); clip away exact
# zeros so inverse-CDF transforms stay finite.
_MIN_UNIFORM = 1e-300


def philox_key(master_seed: int, lane: int, stream_id: int) -> np.ndarray:
    """Derive a 128-bit Philox key for one (lane, stream) pair.

    Each part must be an integer >= 0 (bool refused, numpy integers
    accepted): truncating 1.5 or True to 1 would replay seed 1's draws.
    """
    for name, value in (("master_seed", master_seed), ("lane", lane), ("stream_id", stream_id)):
        _check_count(name, value, 0)
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(lane), int(stream_id)))
    return ss.generate_state(2, np.uint64)


def uniform_block(
    key: np.ndarray, start_index: int, count: int, words_per_index: int
) -> np.ndarray:
    """Uniform(0, 1) variates for ``count`` consecutive stream indices.

    Args:
        key: 128-bit Philox key from :func:`philox_key`.
        start_index: first stream index (0-based) of the block.
        count: number of indices.
        words_per_index: per-index word budget; must be a multiple of 4.

    Returns:
        Array of shape ``(count, words_per_index)``; row ``i`` holds the
        variates addressed to index ``start_index + i``.
    """
    if words_per_index % 4 != 0:
        raise ValueError("words_per_index must be a multiple of 4")
    counter = start_index * (words_per_index // 4)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    u = gen.random(count * words_per_index)
    np.maximum(u, _MIN_UNIFORM, out=u)
    return u.reshape(count, words_per_index)


def words_needed(raw: int) -> int:
    """Round a raw word requirement up to a whole Philox block."""
    return 4 * ((max(raw, 1) + 3) // 4)


def generator(master_seed: int, lane: int, stream_id: int) -> np.random.Generator:
    """Sequential generator for uses that do not need per-index addressing."""
    return np.random.Generator(np.random.Philox(key=philox_key(master_seed, lane, stream_id)))
