"""The MMD engine's atom-pair kernel table: bit for bit the rowwise path.

An engine whose first push is reference atoms gathers the window self-sum
terms from an n x n table of ``Kernel.rowwise`` values instead of
evaluating the kernel per pushed point.  The table must change no bit of
any statistic or schedule, must not be allocated above its size bound,
and must never be read for a slot whose point came without an atom index.
"""

import numpy as np
import pytest

from seqshift import CalibrationTarget, Kernel, ReferenceSet, calibrate_schedule, statistics
from seqshift import batch
from seqshift.batch import BatchMmdEngine, atom_pair_table

N, W, ROWS, STEPS = 40, 6, 5, 30


def kernel_for(kind: str, reference: ReferenceSet) -> Kernel:
    if kind == "linear":
        return Kernel("linear")
    return Kernel("rbf", statistics.median_heuristic(reference))


def reference_and_atoms(d: int, seed: int = 7):
    gen = np.random.default_rng(seed)
    reference = ReferenceSet(gen.normal(size=(N, d)))
    return reference, gen.integers(N, size=(ROWS, STEPS))


def run(engine: BatchMmdEngine, reference: ReferenceSet, atoms: np.ndarray, by_index) -> np.ndarray:
    """Statistics of every step from ``W`` on, with a row dropped every 7th
    step; ``by_index(t)`` says whether step t's push carries atom indices."""
    out = []
    active = np.arange(ROWS)
    for t in range(STEPS):
        col = atoms[:, t]
        idx = col if by_index(t) else None
        engine.push_column(reference.values[col], None if t < W - 1 else active, atoms=idx)
        if t >= W - 1:
            out.append(engine.statistics(active))
            if t % 7 == 0:
                active = active[1:]
    return np.concatenate(out)


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("d", [2, 9])
def test_table_entries_are_the_rowwise_bits(kind, d):
    reference, _ = reference_and_atoms(d)
    kernel = kernel_for(kind, reference)
    table = atom_pair_table(reference, kernel)
    atoms = reference.values
    for i in range(N):
        assert np.array_equal(table[i], kernel.rowwise(atoms[i : i + 1], atoms[None])[0])


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("d", [2, 9])
def test_schedule_bytes_do_not_depend_on_the_table(kind, d, monkeypatch):
    gen = np.random.default_rng(d)
    reference = ReferenceSet(gen.normal(size=(120, d)))
    kernel = kernel_for(kind, reference)
    built = []

    def spy(ref, k):
        table = atom_pair_table(ref, k)
        built.append(table is not None)
        return table

    monkeypatch.setattr(batch, "atom_pair_table", spy)

    def schedule() -> str:
        return calibrate_schedule(
            reference, 10, CalibrationTarget(0.05), t_max=40, n_streams=500,
            statistic="mmd", kernel=kernel, master_seed=11,
        ).to_json()

    with_table = schedule()
    monkeypatch.setattr(batch, "_ATOM_TABLE_MAX_BYTES", 8 * reference.n**2 - 1)
    without_table = schedule()
    assert built == [True, False]
    assert with_table == without_table


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_table_only_below_its_size_bound(kind, monkeypatch):
    reference, atoms = reference_and_atoms(9)
    kernel = kernel_for(kind, reference)
    by_value = run(BatchMmdEngine(reference, W, ROWS, kernel), reference, atoms, lambda t: False)

    monkeypatch.setattr(batch, "_ATOM_TABLE_MAX_BYTES", 8 * N**2 - 1)
    engine = BatchMmdEngine(reference, W, ROWS, kernel)
    assert np.array_equal(run(engine, reference, atoms, lambda t: True), by_value)
    assert engine._atom_table is None and engine._slot_atoms is None

    monkeypatch.setattr(batch, "_ATOM_TABLE_MAX_BYTES", 8 * N**2)
    engine = BatchMmdEngine(reference, W, ROWS, kernel)
    assert np.array_equal(run(engine, reference, atoms, lambda t: True), by_value)
    assert engine._atom_table.shape == (N, N)
    assert engine._slot_atoms.shape == (ROWS, W)


@pytest.mark.parametrize(
    "by_index",
    [
        lambda t: False,  # points only, as the detector and the Monte Carlo push
        lambda t: t < W + 3,  # atoms, then points: the table is dropped mid-ring
        lambda t: t >= 2,  # points, then atoms: no table is built
        lambda t: t % 3 != 1,  # interleaved, from an atom push
    ],
    ids=["values", "atoms-then-values", "values-then-atoms", "interleaved"],
)
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_point_pushes_keep_no_table_and_stay_bit_exact(by_index, kind):
    reference, atoms = reference_and_atoms(9)
    kernel = kernel_for(kind, reference)
    by_value = run(BatchMmdEngine(reference, W, ROWS, kernel), reference, atoms, lambda t: False)
    engine = BatchMmdEngine(reference, W, ROWS, kernel)
    assert np.array_equal(run(engine, reference, atoms, by_index), by_value)
    assert engine._atom_table is None  # some slot's point came without an index
