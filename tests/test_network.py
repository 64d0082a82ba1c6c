import hashlib
import tracemalloc

import numpy as np
import pytest

import volseg.network as network
from volseg.network import (
    NetworkConfig,
    WeightFormatError,
    build_unet,
    conv3d,
    count_parameters,
    forward,
    instance_norm,
    layer_plan,
    load_weights,
    max_pool_2x,
    nearest_upsample_2x,
    relu,
    save_weights,
    softmax_channels,
)

from oracles import (
    naive_conv3d,
    naive_forward_two_stage,
    naive_instance_norm,
    naive_max_pool,
    naive_upsample,
)

TOY = NetworkConfig(in_channels=1, base_width=2, num_stages=2, kernel_plan=(3, 3))


def channels_last(x):
    """The same logical (C, X, Y, Z) array, stored as (X, Y, Z, C)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_channels_last(x):
    return x.transpose(1, 2, 3, 0).flags.c_contiguous


def analytic_tally(cfg: NetworkConfig) -> int:
    """Closed-form per-layer parameter count, summed stage by stage."""

    def conv_p(k, cin, cout):
        return k**3 * cin * cout + cout

    def norm_p(c):
        return 2 * c

    total = 0
    for s in range(1, cfg.num_stages + 1):
        k = cfg.kernel_plan[s - 1]
        w = cfg.base_width * 2 ** (s - 1)
        cin = cfg.in_channels if s == 1 else w // 2
        for b in range(cfg.convs_per_stage):
            total += conv_p(k, cin if b == 0 else w, w) + norm_p(w)
    for s in range(cfg.num_stages - 1, 0, -1):
        k = cfg.kernel_plan[s - 1]
        w = cfg.base_width * 2 ** (s - 1)
        total += conv_p(1, 2 * w, w) + norm_p(w)  # channel-halving block
        for b in range(cfg.convs_per_stage):
            total += conv_p(k, 2 * w if b == 0 else w, w) + norm_p(w)
    total += conv_p(1, cfg.base_width, cfg.num_classes)
    return total


class TestConv3d:
    def test_identity_1x1x1(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 3, 3)).astype(np.float32)
        w = np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1, 1)
        out = conv3d(x, w, np.zeros(2, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_ones_kernel_counts_padded_support(self):
        x = np.ones((1, 5, 5, 5), np.float32)
        w = np.ones((1, 1, 3, 3, 3), np.float32)
        out = conv3d(x, w, np.zeros(1, np.float32))[0]
        assert out[2, 2, 2] == 27.0
        assert out[0, 2, 2] == 18.0  # face center: one axis loses a 3x3 slab

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = conv3d(x, w, b)
        np.testing.assert_allclose(out, naive_conv3d(x, w, b), atol=1e-5)

    @pytest.mark.parametrize("k", [1, 3])
    def test_no_bias_adds_nothing(self, k):
        rng = np.random.default_rng(2 + k)
        x = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
        w = rng.normal(size=(3, 2, k, k, k)).astype(np.float32)
        np.testing.assert_array_equal(conv3d(x, w, None), conv3d(x, w, np.zeros(3, np.float32)))

    def test_rejects_even_kernel_and_bad_shapes(self):
        x = np.zeros((1, 4, 4, 4), np.float32)
        with pytest.raises(ValueError, match="odd"):
            conv3d(x, np.zeros((1, 1, 2, 2, 2), np.float32), np.zeros(1, np.float32))
        with pytest.raises(ValueError, match="channels"):
            conv3d(x, np.zeros((1, 3, 1, 1, 1), np.float32), np.zeros(1, np.float32))


class TestInstanceNorm:
    def test_standardizes_each_channel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.0, size=(3, 6, 6, 6)).astype(np.float32)
        out = instance_norm(x, np.ones(3, np.float32), np.zeros(3, np.float32))
        for c in range(3):
            assert abs(out[c].mean()) < 1e-5
            assert abs(out[c].var() - 1.0) < 1e-3

    def test_constant_channel_collapses_to_beta(self):
        x = np.full((1, 4, 4, 4), 5.0, np.float32)
        out = instance_norm(x, np.ones(1, np.float32), np.full(1, 0.25, np.float32))
        np.testing.assert_allclose(out, 0.25, atol=1e-4)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        gamma = rng.normal(size=2).astype(np.float32)
        beta = rng.normal(size=2).astype(np.float32)
        out = instance_norm(x, gamma, beta)
        np.testing.assert_allclose(out, naive_instance_norm(x, gamma, beta), atol=1e-5)

    def test_in_place_equals_out_of_place(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(3, 6, 4, 4)).astype(np.float32)
        gamma = rng.normal(size=3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        expected = instance_norm(x, gamma, beta)
        out = instance_norm(x, gamma, beta, out=x)
        assert out is x
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("order", [np.ascontiguousarray, channels_last], ids=["channels_first", "channels_last"])
    def test_channel_far_from_zero_matches_oracle(self, order):
        rng = np.random.default_rng(5)
        x = rng.normal(1e3, 1.0, size=(2, 8, 8, 4)).astype(np.float32)
        x[1] -= 2e3
        gamma = rng.normal(size=2).astype(np.float32)
        beta = rng.normal(size=2).astype(np.float32)
        out = instance_norm(order(x), gamma, beta)
        np.testing.assert_allclose(out, naive_instance_norm(x, gamma, beta), atol=1e-5)


class TestPoolAndUpsample:
    def test_pool_constant(self):
        x = np.full((1, 4, 4, 4), 2.5, np.float32)
        np.testing.assert_array_equal(max_pool_2x(x), np.full((1, 2, 2, 2), 2.5, np.float32))

    def test_pool_single_hot_voxel(self):
        x = np.zeros((1, 4, 4, 4), np.float32)
        x[0, 1, 2, 3] = 1.0
        out = max_pool_2x(x)
        assert out.sum() == 1.0
        assert out[0, 0, 1, 1] == 1.0

    def test_pool_matches_block_oracle(self):
        x = np.random.default_rng(4).normal(size=(2, 4, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(max_pool_2x(x), naive_max_pool(x))

    def test_pool_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even"):
            max_pool_2x(np.zeros((1, 3, 4, 4), np.float32))

    def test_upsample_then_pool_recovers_input(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 2, 4)).astype(np.float32)
        np.testing.assert_array_equal(max_pool_2x(nearest_upsample_2x(x)), x)

    def test_upsample_replicates_blocks(self):
        x = np.full((1, 1, 1, 1), 7.0, np.float32)
        np.testing.assert_array_equal(nearest_upsample_2x(x), np.full((1, 2, 2, 2), 7.0, np.float32))


class TestBuildAndCount:
    def test_same_seed_same_weights(self):
        a = build_unet(TOY, init_seed=11)
        b = build_unet(TOY, init_seed=11)
        for la, lb in zip(a.layers, b.layers):
            if la.weights is not None:
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_different_seed_different_weights(self):
        a = build_unet(TOY, init_seed=11)
        b = build_unet(TOY, init_seed=12)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_single_conv_closed_forms(self):
        model = build_unet(NetworkConfig(), init_seed=0)
        first = model.layers[0]
        assert first.kind == "conv"
        assert first.param_count() == 27 * 1 * 32 + 32 == 896
        # a 1x1x1 conv mapping 512 -> 512 appears in encoder stage 5
        sizes = [l.param_count() for l in model.layers if l.kind == "conv"]
        assert 512 * 512 + 512 in sizes

    def test_default_config_matches_analytic_tally(self):
        cfg = NetworkConfig()
        total = count_parameters(build_unet(cfg, init_seed=0))
        assert total == analytic_tally(cfg)
        assert 13_000_000 <= total <= 15_000_000

    def test_all_cubic_variant_matches_analytic_tally(self):
        cfg = NetworkConfig(kernel_plan=(3,) * 6)
        total = count_parameters(build_unet(cfg, init_seed=0))
        assert total == analytic_tally(cfg)
        assert 80_000_000 <= total <= 92_000_000

    def test_four_channel_input_config(self):
        model = build_unet(NetworkConfig(in_channels=4), init_seed=0)
        assert model.layers[0].cin == 4

    def test_skip_plan_covers_all_but_bottleneck(self):
        cfg = NetworkConfig()
        stack, pairs = [], []
        for lay in layer_plan(cfg):
            if lay.kind == "max_pool":
                stack.append(lay)
            elif lay.kind == "upsample":
                pairs.append((stack.pop(), lay))
        assert stack == [] and len(pairs) == cfg.num_stages - 1
        # decoder stage s (deepest first) concatenates encoder stage s's output
        decoder_widths = [cfg.stage_width(s) for s in range(cfg.num_stages - 1, 0, -1)]
        assert [pool.cin for pool, _ in pairs] == decoder_widths
        assert [up.cout for _, up in pairs] == decoder_widths
        assert cfg.stage_width(cfg.num_stages) not in {pool.cin for pool, _ in pairs}


class TestForward:
    def test_default_model_output_shape_and_softmax(self):
        model = build_unet(NetworkConfig(), init_seed=0)
        x = np.random.default_rng(6).normal(size=(1, 32, 32, 32)).astype(np.float32)
        probs = forward(model, x)
        assert probs.shape == (3, 32, 32, 32)
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)

    def test_zero_input_gives_uniform_probabilities(self):
        model = build_unet(TOY, init_seed=7)
        probs = forward(model, np.zeros((1, 4, 4, 4), np.float32))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-6)

    def test_toy_model_matches_naive_oracle(self):
        model = build_unet(TOY, init_seed=8)
        x = np.random.default_rng(9).normal(size=(1, 4, 4, 4)).astype(np.float32)
        probs = forward(model, x)
        expected = naive_forward_two_stage(model, x)
        np.testing.assert_allclose(probs, expected, atol=1e-4)

    def test_biases_cancelled_by_instance_norm_are_skipped(self):
        # 27 of the default network's 28 convs feed an instance norm, which
        # subtracts each channel's mean: redrawing their biases leaves the
        # output bit-identical; the final conv's bias is still added
        model = build_unet(NetworkConfig(), init_seed=0)
        x = np.random.default_rng(16).normal(size=(1, 32, 32, 32)).astype(np.float32)
        expected = forward(model, x)
        layers = model.layers
        normed = [lay for lay, nxt in zip(layers, layers[1:])
                  if lay.kind == "conv" and nxt.kind == "instance_norm"]
        assert len(normed) == 27 and sum(lay.kind == "conv" for lay in layers) == 28
        rng = np.random.default_rng(17)
        for lay in normed:
            lay.bias = rng.normal(size=lay.cout).astype(np.float32)
        np.testing.assert_array_equal(forward(model, x), expected)
        layers[-2].bias = np.array([0.0, 1.0, -1.0], np.float32)
        assert not np.array_equal(forward(model, x), expected)

    def test_toy_model_with_biases_matches_naive_oracle(self):
        # the oracle adds every conv bias and norm beta
        model = build_unet(TOY, init_seed=8)
        rng = np.random.default_rng(18)
        for lay in model.layers:
            if lay.bias is not None:
                lay.bias = rng.normal(size=lay.cout).astype(np.float32)
        x = np.random.default_rng(9).normal(size=(1, 4, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(forward(model, x), naive_forward_two_stage(model, x), atol=1e-4)

    @pytest.mark.parametrize("kernel_plan", [(3, 3, 1, 1), (1, 3, 3, 1)])
    def test_producer_written_halos_equal_convs_padding_their_own_input(self, monkeypatch, kernel_plan):
        # 3x3x3 and 1x1x1 stages, random conv biases and norm affines: the
        # forward whose ReLUs, pools and upsamples write the halos that the
        # plan's pads list gives the bits of one whose every conv pads its
        # own input
        cfg = NetworkConfig(in_channels=2, base_width=4, num_stages=4, kernel_plan=kernel_plan)
        model = build_unet(cfg, init_seed=19)
        rng = np.random.default_rng(20)
        for lay in model.layers:
            if lay.bias is not None:
                lay.bias = rng.normal(size=lay.cout).astype(np.float32)
            if lay.kind == "instance_norm":
                lay.weights = rng.uniform(0.5, 1.5, size=lay.cout).astype(np.float32)
        x = rng.normal(size=(2, 16, 8, 16)).astype(np.float32)
        written = forward(model, x)
        skipped = []
        monkeypatch.setattr(network, "_producer_halo", lambda *args: skipped.append(args) or (None, None))
        np.testing.assert_array_equal(written, forward(model, x))
        assert skipped

    # (kernel plan, stages) -> {producer's layer index: pad}, read off the
    # plan by hand. 3 stages: encoder 0-5, pool 6, 7-12, pool 13, 14-19;
    # decoder stage 2 is 20-29 (upsample 23, convs 24 and 27), stage 1 is
    # 30-39 (upsample 33, convs 34 and 37). 6 stages: pools 6, 13, 20, 27,
    # 34; decoder stages 4-1 have upsamples 54, 64, 74, 84 and convs 3 and 6
    # after each. Each encoder 3x3x3 conv's producer is the ReLU or pool
    # before it; each decoder one after an upsample also reads the skip
    # from the ReLU before the matching pool (5, 12, 19, 26)
    HALO_PADS = {
        ((3, 3, 3, 3, 1, 1), 6): [2, 6, 9, 13, 16, 20, 23, 5, 12, 19, 26,
                                  54, 57, 64, 67, 74, 77, 84, 87],
        ((3, 1, 1), 3): [2, 5, 33, 36],
        ((1, 1), 2): [],
        ((3, 3, 3), 3): [2, 6, 9, 13, 16, 12, 23, 26, 5, 33, 36],
    }

    @pytest.mark.parametrize("plan", HALO_PADS)
    def test_halo_pads_from_the_plan_alone(self, plan):
        kernel_plan, stages = plan
        layers = layer_plan(NetworkConfig(num_stages=stages, kernel_plan=kernel_plan))
        pads = {i: lay.pad for i, lay in enumerate(layers) if lay.pad}
        assert pads == dict.fromkeys(self.HALO_PADS[plan], (1, 1, 1))

    @pytest.mark.parametrize("plan", HALO_PADS)
    def test_forward_allocates_only_the_halos_the_rule_lists(self, monkeypatch, plan):
        # every halo_buffer call, the producers' and any conv padding its own
        # input: one per listed producer, plus the first conv's own when it
        # is 3x3x3
        kernel_plan, stages = plan
        cfg = NetworkConfig(base_width=2, num_stages=stages, kernel_plan=kernel_plan)
        model = build_unet(cfg, init_seed=22)
        calls = []
        buffer = network.halo_buffer
        monkeypatch.setattr(network, "halo_buffer", lambda *args: calls.append(args) or buffer(*args))
        forward(model, np.ones((1, *(2 ** (stages - 1),) * 3), np.float32))
        pads = {i: lay.pad for i, lay in enumerate(model.layers) if lay.pad}
        assert len(calls) == len(pads) + (kernel_plan[0] == 3)

    @staticmethod
    def default_forward_peak():
        """tracemalloc peak of one default-network forward at 64x64x32, and a stage-1 activation's bytes."""
        model = build_unet(NetworkConfig(), init_seed=0)
        x = np.random.default_rng(21).normal(size=(1, 64, 64, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak, 4 * 32 * x[0].size

    def test_forward_peak_memory_at_most_four_stage_one_activations(self):
        # every 3x3x3 conv reads a halo its producer wrote, so no conv input
        # lives beside its own padded copy (5.6x when each conv padded its input)
        peak, stage_one = self.default_forward_peak()
        assert peak <= 4 * stage_one, f"{peak / 1e6:.1f} MB = {peak / stage_one:.2f}x"

    def test_forward_peak_memory_without_a_concat_halo(self):
        # a 3x3x3 decoder conv reads its skip half and then its upsampled
        # half, one halo each, so no 64-channel concat halo is built: about
        # 2.45x, against 3.6x when the decoder's first stage-1 conv read one
        peak, stage_one = self.default_forward_peak()
        assert peak <= 2.75 * stage_one, f"{peak / 1e6:.1f} MB = {peak / stage_one:.2f}x"

    def test_forward_is_deterministic(self):
        model = build_unet(TOY, init_seed=10)
        x = np.random.default_rng(11).normal(size=(1, 8, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(forward(model, x), forward(model, x))

    def test_ops_are_looked_up_in_module_namespace(self, monkeypatch):
        ops = {"conv": "conv3d", "instance_norm": "instance_norm", "relu": "relu",
               "max_pool": "max_pool_2x", "upsample": "nearest_upsample_2x",
               "softmax": "softmax_channels"}
        calls = dict.fromkeys(ops, 0)

        def counting(kind, op):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return op(*args, **kwargs)
            return wrapper

        for kind, name in ops.items():
            monkeypatch.setattr(network, name, counting(kind, getattr(network, name)))
        model = build_unet(TOY, init_seed=0)
        forward(model, np.ones((1, 4, 4, 4), np.float32))
        expected = {kind: sum(lay.kind == kind for lay in model.layers) for kind in ops}
        expected["conv"] += 1  # the 3x3x3 decoder conv runs on its skip half, then its upsampled half
        assert calls == expected

    def test_shape_errors(self):
        model = build_unet(TOY, init_seed=0)
        with pytest.raises(ValueError, match="divisible"):
            forward(model, np.zeros((1, 5, 5, 5), np.float32))
        with pytest.raises(ValueError, match=r"\(1, X, Y, Z\)"):
            forward(model, np.zeros((2, 4, 4, 4), np.float32))

    def test_softmax_channels_stable_for_large_logits(self):
        x = np.array([1000.0, 999.0, 998.0], np.float32).reshape(3, 1, 1, 1)
        probs = softmax_channels(x)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_softmax_channels_in_place_equals_out_of_place(self):
        x = np.random.default_rng(7).normal(scale=5.0, size=(3, 4, 4, 2)).astype(np.float32)
        expected = softmax_channels(x)
        out = softmax_channels(x, out=x)
        assert out is x
        np.testing.assert_array_equal(out, expected)

    def test_softmax_channels_leaves_input_unchanged(self):
        x = np.random.default_rng(6).normal(size=(3, 4, 4, 2)).astype(np.float32)
        before = x.copy()
        softmax_channels(x)
        np.testing.assert_array_equal(x, before)


class TestWeightFiles:
    def test_save_load_round_trip(self, tmp_path):
        model = build_unet(TOY, init_seed=13)
        path = tmp_path / "toy.vskw"
        save_weights(model, path)
        loaded = load_weights(path, TOY)
        assert count_parameters(loaded) == count_parameters(model)
        x = np.random.default_rng(14).normal(size=(1, 4, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))

    def test_truncated_file_names_layer(self, tmp_path):
        model = build_unet(TOY, init_seed=15)
        path = tmp_path / "toy.vskw"
        save_weights(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(WeightFormatError, match=r"layer \d+ truncated"):
            load_weights(path, TOY)

    def test_channel_mismatch_detected(self, tmp_path):
        model = build_unet(TOY, init_seed=16)
        path = tmp_path / "toy.vskw"
        save_weights(model, path)
        four_channel = NetworkConfig(in_channels=4, base_width=2, num_stages=2, kernel_plan=(3, 3))
        with pytest.raises(WeightFormatError, match="mismatch"):
            load_weights(path, four_channel)

    def test_corrupted_payload_fails_crc(self, tmp_path):
        model = build_unet(TOY, init_seed=17)
        path = tmp_path / "toy.vskw"
        save_weights(model, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF  # flip a bit inside the first conv payload
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError):
            load_weights(path, TOY)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_finite_value_names_the_layer(self, tmp_path, bad, part):
        model = build_unet(TOY, init_seed=18)
        index = [i for i, lay in enumerate(model.layers) if lay.weights is not None][2]
        getattr(model.layers[index], part).reshape(-1)[1] = bad
        path = tmp_path / "toy.vskw"
        save_weights(model, path)  # the CRC32 is valid; only the value is wrong
        with pytest.raises(WeightFormatError, match=rf"layer {index} has NaN or Inf"):
            load_weights(path, TOY)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vskw"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path, TOY)


class TestLayouts:
    """Memory order follows kernel size; values and logical shapes do not."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv3d_output_order_and_values(self, k):
        rng = np.random.default_rng(60 + k)
        x = rng.normal(size=(3, 4, 6, 5)).astype(np.float32)
        w = rng.normal(size=(2, 3, k, k, k)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        expected = conv3d(x, w, b)
        out = conv3d(channels_last(x), w, b)
        np.testing.assert_array_equal(out, expected)
        assert out.shape == (2, 4, 6, 5)
        assert is_channels_last(out) if k == 3 else out.flags.c_contiguous
        np.testing.assert_allclose(out, naive_conv3d(x, w, b), atol=1e-5)

    def test_ops_on_channels_last_equal_ops_on_c_copy(self):
        rng = np.random.default_rng(62)
        x = rng.normal(1.5, 2.0, size=(5, 6, 4, 8)).astype(np.float32)
        xl = channels_last(x)
        gamma = rng.normal(size=5).astype(np.float32)
        beta = rng.normal(size=5).astype(np.float32)
        for op in (lambda t: instance_norm(t, gamma, beta), relu, max_pool_2x, nearest_upsample_2x):
            last, first = op(xl), op(x)
            np.testing.assert_array_equal(last, first)
            assert is_channels_last(last) and first.flags.c_contiguous
        np.testing.assert_array_equal(nearest_upsample_2x(xl), naive_upsample(x))
        np.testing.assert_allclose(instance_norm(xl, gamma, beta),
                                   naive_instance_norm(x, gamma, beta), atol=1e-5)

    def test_instance_norm_in_place_and_mixed_orders(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(3, 4, 4, 6)).astype(np.float32)
        gamma = rng.normal(size=3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        expected = instance_norm(x, gamma, beta)
        xl = channels_last(x)
        assert instance_norm(xl, gamma, beta, out=xl) is xl
        np.testing.assert_array_equal(xl, expected)
        out = np.empty_like(x)  # channels-first out for a channels-last input
        np.testing.assert_array_equal(instance_norm(channels_last(x), gamma, beta, out=out), expected)
        strided = np.zeros((3, 8, 4, 6), np.float32)[:, ::2]
        strided[...] = x
        np.testing.assert_array_equal(instance_norm(strided, gamma, beta), expected)

    def test_toy_forward_matches_oracle_for_both_input_orders(self):
        cfg = NetworkConfig(in_channels=3, base_width=2, num_stages=2, kernel_plan=(3, 3))
        model = build_unet(cfg, init_seed=64)
        x = np.random.default_rng(65).normal(size=(3, 4, 4, 4)).astype(np.float32)
        probs = forward(model, x)
        np.testing.assert_array_equal(forward(model, channels_last(x)), probs)
        np.testing.assert_allclose(probs, naive_forward_two_stage(model, x), atol=1e-4)
        assert probs.flags.c_contiguous

    def test_default_model_for_both_input_orders(self, tmp_path):
        # task2's four input channels (with one, both orders are the same memory)
        in_channels = 4
        cfg = NetworkConfig(in_channels=in_channels)
        path = tmp_path / "default.vskw"
        save_weights(build_unet(cfg, init_seed=66), path)
        model = load_weights(path, cfg)
        x = np.random.default_rng(67).normal(size=(in_channels, 32, 32, 32)).astype(np.float32)
        probs = forward(model, x)
        np.testing.assert_array_equal(forward(model, channels_last(x)), probs)
        assert probs.shape == (3, 32, 32, 32) and probs.flags.c_contiguous
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)

    def test_conv3d_sees_the_plan_shapes(self, tmp_path, monkeypatch):
        # x is the logical (cin, d, d, d) input, which the benchmark tracer
        # keys its per-shape conv times on; every 3x3x3 conv but the
        # network's first reads it from a halo its producer wrote. A 3x3x3
        # decoder conv runs as two convs of half its cin: the skip half into
        # a fresh output, then the upsampled half added into that output; a
        # 1x1x1 decoder conv (stage 2 of plan 3,1,1) reads the whole concat
        seen = []
        conv = network.conv3d

        def counting(x, weights, bias, halo=None, out=None):
            seen.append((x.shape, weights.shape, None if halo is None else halo.shape, out is not None))
            if halo is not None:
                assert np.shares_memory(x, halo) and is_channels_last(halo)
            return conv(x, weights, bias, halo=halo, out=out)

        monkeypatch.setattr(network, "conv3d", counting)
        for kernel_plan in ((3, 3, 1), (3, 1, 1)):
            cfg = NetworkConfig(base_width=4, num_stages=3, kernel_plan=kernel_plan)
            path = tmp_path / "net.vskw"
            save_weights(build_unet(cfg, init_seed=68), path)
            expected, dims, stack, after_upsample = [], 16, [], False
            for lay in layer_plan(cfg):
                if lay.kind == "conv":
                    if lay.kernel == (1, 1, 1):
                        expected.append(((lay.cin, dims, dims, dims), (lay.cout, lay.cin, 1, 1, 1), None, False))
                    else:
                        halves = 2 if after_upsample else 1
                        cin = lay.cin // halves
                        call = ((cin, dims, dims, dims), (lay.cout, cin, *lay.kernel), (cin, *(dims + 2,) * 3))
                        expected += [call + (False,), call + (True,)][:halves]
                elif lay.kind == "max_pool":
                    stack.append(dims)
                    dims //= 2
                elif lay.kind == "upsample":
                    dims = stack.pop()
                after_upsample = lay.kind == "upsample"
            expected[0] = expected[0][:2] + (None, False)
            seen.clear()
            forward(load_weights(path, cfg), np.ones((1, 16, 16, 16), np.float32))
            assert seen == expected, kernel_plan
            assert sum(out for *_, out in seen) == sum(k == 3 for k in kernel_plan[:-1])

    @pytest.mark.parametrize("last", [False, True])
    def test_pool_and_upsample_write_into_a_halo(self, last):
        # either input order, written into a halo_buffer's interior or into
        # a channels-first array, gives the values of a fresh output; the
        # concat a 1x1x1 decoder conv reads is [upsampled, skip]
        rng = np.random.default_rng(70)
        x = rng.normal(size=(3, 4, 6, 2)).astype(np.float32)
        low = rng.normal(size=(2, 2, 3, 1)).astype(np.float32)
        if last:
            x, low = channels_last(x), channels_last(low)
        pooled, upsampled, concat = max_pool_2x(x), nearest_upsample_2x(low), network._upsample_concat(low, x)
        np.testing.assert_array_equal(pooled, naive_max_pool(x))
        np.testing.assert_array_equal(upsampled, naive_upsample(low))
        np.testing.assert_array_equal(concat[:2], upsampled)
        np.testing.assert_array_equal(concat[2:], x)
        _, pool_out = network.halo_buffer(3, (2, 3, 1), (1, 1, 1))
        _, upsample_out = network.halo_buffer(2, (4, 6, 2), (1, 1, 1))
        for out, op, arg, expected in ((pool_out, max_pool_2x, x, pooled),
                                       (upsample_out, nearest_upsample_2x, low, upsampled),
                                       (np.empty((3, 2, 3, 1), np.float32), max_pool_2x, x, pooled),
                                       (np.empty((2, 4, 6, 2), np.float32), nearest_upsample_2x, low, upsampled)):
            assert op(arg, out=out) is out
            np.testing.assert_array_equal(out, expected)

    def test_loaded_weights_memory_order(self, tmp_path):
        # decoder stage 2 reads its concat with a 1x1x1 conv; decoder stage 1
        # reads its skip and upsampled halves with a 3x3x3 conv
        cfg = NetworkConfig(base_width=2, num_stages=3, kernel_plan=(3, 1, 1))
        built = build_unet(cfg, init_seed=69)
        path = tmp_path / "net.vskw"
        save_weights(built, path)
        layers = load_weights(path, cfg).layers
        split = 0
        for prev, lay, made in zip([None] + [lay.kind for lay in layers], layers, built.layers):
            if lay.kind == "conv":
                logical = (lay.cout, lay.cin, *lay.kernel)
                np.testing.assert_array_equal(lay.weights.reshape(logical), made.weights)
                if lay.kernel == (3, 3, 3) and prev == "upsample":
                    # (cout, 2, cin/2, kx, ky, kz), the concat's (upsampled,
                    # skip) halves, stored (2, kx, kz, cin/2, ky, cout): each
                    # half is its own GEMM operand
                    assert lay.weights.shape == (lay.cout, 2, lay.cin // 2, *lay.kernel)
                    assert lay.weights.transpose(1, 3, 5, 2, 4, 0).flags.c_contiguous
                    for half in (lay.weights[:, 0], lay.weights[:, 1]):
                        assert half.transpose(2, 4, 1, 3, 0).flags.c_contiguous
                    split += 1
                else:
                    # a 3x3x3 weight is stored (kx, kz, cin, ky, cout): the GEMM operand
                    assert lay.weights.shape == logical
                    order = (2, 4, 1, 3, 0) if lay.kernel == (3, 3, 3) else (0, 1, 2, 3, 4)
                    assert lay.weights.transpose(order).flags.c_contiguous
            if lay.bias is not None:
                assert lay.bias.flags.owndata  # not a view that keeps the payload alive
        assert split == 1

    # sha256 of the bytes written before weights were stored channels-last
    SAVED = {1: "2cd099f2539d481c90c24948edf8c46e1055a627941e498744396b83b71d933a",
             4: "706aacee4ff35c5e0f333e46eeff2160a1bdbc0686e7108ebb72528da1874321"}

    @pytest.mark.parametrize("in_channels", [1, 4])
    def test_save_weights_bytes_unchanged_through_load(self, tmp_path, in_channels):
        cfg = NetworkConfig(in_channels=in_channels)
        first, second = tmp_path / "a.vskw", tmp_path / "b.vskw"
        save_weights(build_unet(cfg, init_seed=0), first)
        save_weights(load_weights(first, cfg), second)
        digest = hashlib.sha256(first.read_bytes()).hexdigest()
        assert digest == self.SAVED[in_channels]
        assert second.read_bytes() == first.read_bytes()
