import math

import numpy as np
import pytest

from seqshift import (
    ChangePointModel,
    DistributionSpec,
    estimate_arl0,
    fixed_threshold,
    generate_stream,
    null_model,
    rng,
    sample_at,
)
from seqshift.streams import draw_reference, generate_chunk, load_stream_file, save_stream_file


class TestDistributionSpec:
    def test_gaussian_shapes(self):
        spec = DistributionSpec.gaussian([0.0, 1.0], [1.0, 4.0])
        assert spec.dim == 2
        assert spec.family == "gaussian"

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DistributionSpec.gaussian_mixture(
                [[0.0], [1.0]], [[1.0], [1.0]], [0.6, 0.5]
            )

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DistributionSpec.gaussian(0.0, 0.0)

    def test_mixture_component_dims_must_agree(self):
        with pytest.raises(ValueError):
            DistributionSpec.gaussian_mixture(
                [[0.0, 1.0], [1.0]], [[1.0, 1.0], [1.0]], [0.5, 0.5]
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            DistributionSpec("cauchy", [[0.0]], [[1.0]], [1.0])


class TestChangePointModel:
    def test_dims_must_match(self):
        p = DistributionSpec.gaussian([0.0, 0.0], [1.0, 1.0])
        q = DistributionSpec.gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="dim"):
            ChangePointModel(p, q, 10)

    def test_change_point_validation(self):
        p = DistributionSpec.gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            ChangePointModel(p, p, 0)
        with pytest.raises(ValueError):
            ChangePointModel(p, p, 2.5)
        ChangePointModel(p, p, math.inf)  # fine


class TestGeneration:
    def test_same_seed_same_stream(self, std_normal, shifted_normal):
        model = ChangePointModel(std_normal, shifted_normal, 40)
        a = generate_stream(model, 100, master_seed=5, stream_id=2)
        b = generate_stream(model, 100, master_seed=5, stream_id=2)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self, std_normal):
        model = null_model(std_normal)
        a = generate_stream(model, 50, master_seed=5, stream_id=0)
        b = generate_stream(model, 50, master_seed=5, stream_id=1)
        assert not np.array_equal(a, b)

    def test_sample_at_matches_stream(self, std_normal, shifted_normal):
        model = ChangePointModel(std_normal, shifted_normal, 7)
        stream = generate_stream(model, 30, master_seed=11, stream_id=4)
        for t in (1, 6, 7, 8, 30):
            assert np.array_equal(sample_at(model, t, 11, 4), stream[t - 1])

    def test_chunked_generation_matches_whole(self, std_normal, shifted_normal):
        model = ChangePointModel(std_normal, shifted_normal, 25)
        whole = generate_stream(model, 90, master_seed=3, stream_id=9)
        parts = np.concatenate(
            [
                generate_chunk(model, 1, 10, 3, 9),
                generate_chunk(model, 11, 50, 3, 9),
                generate_chunk(model, 61, 30, 3, 9),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_change_point_split(self, std_normal, shifted_normal):
        """Pre-change and post-change sub-streams concatenate to the full one."""
        tau = 50
        model = ChangePointModel(std_normal, shifted_normal, tau)
        pre_only = ChangePointModel(std_normal, shifted_normal, math.inf)
        post_only = ChangePointModel(std_normal, shifted_normal, 1)
        full = generate_stream(model, 120, master_seed=9, stream_id=3)
        pre = generate_stream(pre_only, 120, master_seed=9, stream_id=3)
        post = generate_stream(post_only, 120, master_seed=9, stream_id=3)
        assert np.array_equal(full, np.concatenate([pre[: tau - 1], post[tau - 1 :]]))

    def test_infinite_change_point_never_switches(self, std_normal, shifted_normal):
        same_budget_null = ChangePointModel(std_normal, shifted_normal, math.inf)
        plain_null = null_model(std_normal)
        a = generate_stream(same_budget_null, 200, master_seed=1, stream_id=0)
        b = generate_stream(plain_null, 200, master_seed=1, stream_id=0)
        assert np.array_equal(a, b)

    def test_immediate_change_draws_post_from_first_step(self, std_normal, shifted_normal):
        model = ChangePointModel(std_normal, shifted_normal, 1)
        q_only = null_model(shifted_normal)
        a = generate_stream(model, 200, master_seed=1, stream_id=0)
        b = generate_stream(q_only, 200, master_seed=1, stream_id=0)
        assert np.array_equal(a, b)

    def test_stationary_null_moments(self, std_normal):
        """100k scalar N(0,1) samples land within 5 standard errors."""
        data = generate_stream(null_model(std_normal), 100_000, master_seed=8)[:, 0]
        se_mean = 1.0 / math.sqrt(data.size)
        se_var = math.sqrt(2.0 / data.size)
        assert abs(data.mean()) < 5 * se_mean
        assert abs(data.var() - 1.0) < 5 * se_var

    def test_post_change_mean(self, std_normal, shifted_normal):
        """Mean over 10000 post-change draws approaches the shifted mean."""
        model = ChangePointModel(std_normal, shifted_normal, 100)
        data = generate_stream(model, 10_099, master_seed=1)[:, 0]
        assert abs(data[99:].mean() - 1.0) < 3.0 / math.sqrt(10_000)

    def test_uniform_family_moments_and_support(self):
        spec = DistributionSpec.uniform(2.0, 3.0)
        data = generate_stream(null_model(spec), 50_000, master_seed=4)[:, 0]
        half = math.sqrt(3.0 * 3.0)
        assert data.min() >= 2.0 - half and data.max() <= 2.0 + half
        assert abs(data.mean() - 2.0) < 0.05
        assert abs(data.var() - 3.0) < 0.1

    def test_mixture_weights_respected(self):
        spec = DistributionSpec.gaussian_mixture(
            [[-10.0], [10.0]], [[0.01], [0.01]], [0.3, 0.7]
        )
        data = generate_stream(null_model(spec), 20_000, master_seed=6)[:, 0]
        frac_high = np.mean(data > 0)
        assert abs(frac_high - 0.7) < 0.02

    def test_reference_lane_independent_of_stream_lane(self, std_normal):
        ref = draw_reference(std_normal, 100, master_seed=5, stream_id=0)
        stream = generate_stream(null_model(std_normal), 100, master_seed=5, stream_id=0)
        assert not np.array_equal(ref, stream[:, :])

    def test_bad_arguments(self, std_normal):
        model = null_model(std_normal)
        with pytest.raises(ValueError):
            generate_chunk(model, 0, 10, 1)
        with pytest.raises(ValueError):
            generate_chunk(model, 1, 0, 1)

    @pytest.mark.parametrize(
        "call, name",
        [(lambda model: generate_chunk(model, 1.0, 10, 1), "start"),
         (lambda model: generate_chunk(model, 1, 10.0, 1), "count"),
         (lambda model: draw_reference(model.pre, 10.0, 1), "size")],
        ids=["start", "count", "size"],
    )
    def test_float_sizes_are_named(self, std_normal, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 10?.0"):
            call(null_model(std_normal))


class TestSeeds:
    """A seed is an integer >= 0: truncating 1.5 or True to 1 would replay
    seed 1's streams under another seed's name."""

    @pytest.mark.parametrize("bad, message", [
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        ("1", "must be an integer, got '1'"),
        (-1, "must be >= 0, got -1"),
    ], ids=["float", "bool", "str", "negative"])
    @pytest.mark.parametrize("name", ["master_seed", "lane", "stream_id"])
    def test_keys_refuse_non_integer_and_negative_parts(self, name, bad, message):
        parts = {"master_seed": 1, "lane": 0, "stream_id": 2, name: bad}
        for derive in (rng.philox_key, rng.generator):
            with pytest.raises(ValueError, match=f"^{name} {message}$"):
                derive(**parts)

    def test_callers_are_refused_by_name(self, std_normal, small_reference):
        model = null_model(std_normal)
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 1.5$"):
            generate_chunk(model, 1, 3, 1.5)
        with pytest.raises(ValueError, match="^stream_id must be an integer, got True$"):
            draw_reference(std_normal, 10, 0, True)
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 2.5$"):
            estimate_arl0(fixed_threshold(0.5, w=5), model, n_runs=2, cap=20,
                          master_seed=2.5, reference=small_reference)

    def test_numpy_integers_keep_the_plain_integers_bytes(self):
        assert np.array_equal(
            rng.philox_key(np.int64(3), np.uint8(1), np.int32(5)), rng.philox_key(3, 1, 5)
        )
        assert rng.generator(np.uint64(7), 0, 0).random() == rng.generator(7, 0, 0).random()


class TestStreamFiles:
    def test_round_trip(self, tmp_path, rng):
        data = rng.normal(size=(40, 3))
        path = tmp_path / "stream.csv"
        save_stream_file(path, data)
        loaded = load_stream_file(path)
        assert np.array_equal(loaded, data)

    def test_header_dim_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dim=2\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="header dim"):
            load_stream_file(path)

    def test_inconsistent_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_stream_file(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1.0,abc\n")
        with pytest.raises(ValueError, match="unparseable"):
            load_stream_file(path)

    def test_unparseable_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("1.0\n# dim=abc\n2.0\n")
        with pytest.raises(ValueError) as exc:
            load_stream_file(path)
        assert str(exc.value) == f"{path}:2: unparseable header: '# dim=abc'"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# dim=1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_stream_file(path)
