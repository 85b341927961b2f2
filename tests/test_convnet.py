"""Convolutional pipeline: patches, forward pass, inhibition, pooling,
fitting, encoding, and the on-disk filter-bank format."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biohash import hashers, plasticity
from biohash import convnet
from biohash.convnet import (ConvBranch, ConvConfig, ConvModel, FilterBank,
                             _as_images, _patch_grid, channel_inhibit,
                             conv_encode_many, conv_features,
                             conv_feature_dim, conv_fit, conv_side,
                             encode_features, load_conv,
                             load_conv_model, max_pool, mnist_conv_config,
                             normalize_patches, save_conv,
                             save_conv_model, train_filter_bank,
                             cifar_conv_config)
from biohash.errors import (BadMagic, DimensionMismatch, KOutOfRange,
                            LayoutMismatch, ParseError, TooSmall,
                            TruncatedFile)
from biohash.plasticity import LearningConfig, SynapseMatrix
from biohash.seeds import subseed, substream


def tiny_config(**overrides):
    """One K=3 branch on 6x6 grayscale, small enough to fit in tests."""
    kwargs = dict(branches=(ConvBranch(3, 8, 0.1, 1e-2),), k_ci=3,
                  layout=(6, 6, 1), pool_kernel=2, pool_stride=2,
                  filter_t_max=10)
    kwargs.update(overrides)
    return ConvConfig(**kwargs)


def tiny_images(n=60, seed=0, layout=(6, 6, 1)):
    rng = substream(seed, "imgs")
    h, w, c = layout
    return rng.random(size=(n, h * w * c))


def extract_patches(images, layout, kernel: int) -> np.ndarray:
    """All K x K x C patches of every image, one flattened patch per row.

    Rows are ordered image-major, then spatial row-major within an image;
    each patch is flattened row-major with the channel index fastest.
    """
    grid = _patch_grid(_as_images(images), layout, kernel)
    return grid.reshape(-1, grid.shape[-1])


def hand_bank(weights, kernel, delta=0.0):
    config = LearningConfig(m=weights.shape[0],
                            rank_r=min(2, weights.shape[0]), seed=0)
    branch = ConvBranch(kernel, weights.shape[0], delta, config.eps0)
    return FilterBank((branch,), (SynapseMatrix(weights, config),))


class TestConvSide:
    def test_stride_one(self):
        assert conv_side(28, 3) == 26
        assert conv_side(28, 4) == 25

    def test_strided(self):
        assert conv_side(26, 7, 2) == 10


class TestExtractPatches:
    def test_mnist_like_patch_count(self):
        imgs = tiny_images(3, layout=(28, 28, 1))
        patches = extract_patches(imgs, (28, 28, 1), kernel=3)
        assert patches.shape == (3 * 26 * 26, 9)

    def test_kernel_equal_to_side_gives_whole_image(self):
        img = np.arange(16.0)
        patches = extract_patches(img, (4, 4, 1), kernel=4)
        np.testing.assert_array_equal(patches, img[None, :])

    def test_row_major_order_single_channel(self):
        img = np.array([1.0, 2.0, 3.0, 4.0])  # 2x2 image
        patches = extract_patches(img, (2, 2, 1), kernel=1)
        np.testing.assert_array_equal(patches, [[1], [2], [3], [4]])

    def test_channel_fastest_within_patch(self):
        # one row of two pixels, two channels each
        img = np.array([1.0, 2.0, 3.0, 4.0])  # (h=1, w=2, c=2)
        patches = extract_patches(img, (1, 2, 2), kernel=1)
        np.testing.assert_array_equal(patches, [[1, 2], [3, 4]])

    def test_images_are_major_order(self):
        imgs = np.array([[1.0, 2, 3, 4], [5.0, 6, 7, 8]])
        patches = extract_patches(imgs, (2, 2, 1), kernel=2)
        np.testing.assert_array_equal(patches,
                                      [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_matches_loop_oracle(self):
        rng = substream(1, "po")
        img = rng.normal(size=5 * 4 * 2)
        patches = extract_patches(img, (5, 4, 2), kernel=2)
        grid = img.reshape(5, 4, 2)
        rows = []
        for i in range(4):
            for j in range(3):
                rows.append(grid[i:i + 2, j:j + 2, :].reshape(-1))
        np.testing.assert_array_equal(patches, np.stack(rows))

    def test_wrong_width_rejected(self):
        with pytest.raises(LayoutMismatch):
            extract_patches(np.ones((2, 10)), (3, 3, 1), kernel=2)

    def test_kernel_too_large(self):
        with pytest.raises(LayoutMismatch):
            extract_patches(np.ones((1, 9)), (3, 3, 1), kernel=4)


class TestNormalizePatches:
    def test_batch_flags_inactive_rows(self):
        p, active = normalize_patches(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(p[0], [0.6, 0.8])
        np.testing.assert_array_equal(p[1], [0.0, 0.0])
        np.testing.assert_array_equal(active, [True, False])

    def test_preserves_leading_shape(self):
        rng = substream(2, "np")
        grid = rng.normal(size=(3, 4, 5, 6))
        p, active = normalize_patches(grid)
        assert p.shape == grid.shape
        assert active.shape == (3, 4, 5)
        np.testing.assert_allclose(np.linalg.norm(p, axis=-1), 1.0)

    def test_power_of_two_scaling_exact(self):
        rng = substream(3, "sc")
        grid = rng.normal(size=(20, 7)).astype(np.float32)
        a, _ = normalize_patches(grid)
        b, _ = normalize_patches(4.0 * grid)
        np.testing.assert_array_equal(a, b)

    def test_generic_scaling_close(self):
        rng = substream(4, "sc")
        grid = rng.normal(size=(20, 7))
        a, _ = normalize_patches(grid)
        b, _ = normalize_patches(0.3 * grid)
        np.testing.assert_allclose(a, b, rtol=1e-12)


# the forward pass computes in float32
F32 = dict(rtol=1e-5, atol=1e-6)


def identity_config(bank, layout):
    """k_ci = filters and 1x1 pooling at stride 1: inhibition and pooling
    are the identity, so the features are the raw response volume."""
    return ConvConfig(branches=bank.branches, k_ci=bank.branches[0].filters,
                      layout=layout, pool_kernel=1, pool_stride=1)


def responses(bank, images, layout):
    """(n, Hc, Wc, F) response volume of a one-branch bank."""
    feats = conv_features(bank, identity_config(bank, layout), images)
    (br,) = bank.branches
    h, w, _ = layout
    return feats.reshape(-1, conv_side(h, br.kernel), conv_side(w, br.kernel),
                         br.filters)


class TestConvForward:
    def test_filter_aligned_with_patch_scores_one(self):
        rng = substream(5, "al")
        img = rng.normal(size=9)
        v = img / np.linalg.norm(img)
        bank = hand_bank(v[None, :], kernel=3)
        vol = responses(bank, img, (3, 3, 1))
        assert vol.shape == (1, 1, 1, 1)
        np.testing.assert_allclose(vol[0, 0, 0, 0], 1.0, **F32)

    def test_two_by_two_hand_case(self):
        img = np.array([1.0, 2.0, 3.0, 4.0])
        W = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 1]])
        bank = hand_bank(W, kernel=2)
        vol = responses(bank, img, (2, 2, 1))
        np.testing.assert_allclose(vol[0, 0, 0], [1.0, 4.0] / np.sqrt(30.0), **F32)

    def test_batch_adds_leading_axis(self):
        rng = substream(6, "ba")
        imgs = rng.normal(size=(4, 16))
        bank = hand_bank(rng.normal(size=(3, 4)), kernel=2)
        vol = responses(bank, imgs, (4, 4, 1))
        assert vol.shape == (4, 3, 3, 3)
        single = responses(bank, imgs[1], (4, 4, 1))
        assert single.shape == (1, 3, 3, 3)
        np.testing.assert_allclose(single[0], vol[1], **F32)

    def test_intensity_scaling_leaves_responses(self):
        rng = substream(7, "sc")
        img = rng.random(16)
        bank = hand_bank(rng.normal(size=(3, 4)), kernel=2)
        np.testing.assert_allclose(responses(bank, img, (4, 4, 1)),
                                   responses(bank, 7.3 * img, (4, 4, 1)), **F32)

    def test_patch_filter_dim_mismatch(self):
        bank = hand_bank(np.eye(3), kernel=2)  # d=3 filters, 2x2x1 patches
        config = identity_config(bank, (4, 4, 1))
        with pytest.raises(DimensionMismatch):
            conv_features(bank, config, np.ones((2, 16)))
        dim = conv_feature_dim(config)
        hash_sm = SynapseMatrix(np.ones((4, dim)), LearningConfig(m=4, seed=0))
        model = ConvModel(config, bank, hash_sm, np.zeros(dim))
        with pytest.raises(DimensionMismatch):
            conv_encode_many(model, np.ones((2, 16)), 2)


def inhibit_oracle(vol, k_ci):
    flat = vol.reshape(-1, vol.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        keep = np.argsort(-flat[r], kind="stable")[:k_ci]
        out[r, keep] = flat[r, keep]
    return out.reshape(vol.shape)


class TestChannelInhibit:
    def test_keep_all_is_identity_copy(self):
        vol = substream(8, "ci").normal(size=(2, 2, 5))
        out = channel_inhibit(vol, 5)
        np.testing.assert_array_equal(out, vol)
        assert out is not vol

    def test_hand_case(self):
        vol = np.array([[[0.2, 0.9, 0.5]]])
        np.testing.assert_array_equal(channel_inhibit(vol, 1),
                                      [[[0.0, 0.9, 0.0]]])

    def test_tie_keeps_lower_channel(self):
        vol = np.array([[[1.0, 1.0, 0.5]]])
        np.testing.assert_array_equal(channel_inhibit(vol, 1),
                                      [[[1.0, 0.0, 0.0]]])

    @pytest.mark.parametrize("k_ci", [1, 3, 7])
    def test_survivor_count(self, k_ci):
        vol = substream(9, "ci").normal(size=(4, 5, 8))
        out = channel_inhibit(vol, k_ci)
        np.testing.assert_array_equal((out != 0).sum(axis=-1), k_ci)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_argsort_oracle(self, seed):
        rng = substream(seed, "cio")
        vol = rng.normal(size=(3, 4, 6))
        # duplicated values exercise the tie rule
        vol = np.round(vol, 1)
        for k_ci in (1, 2, 5):
            np.testing.assert_array_equal(channel_inhibit(vol, k_ci),
                                          inhibit_oracle(vol, k_ci))

    def test_chunked_rows_match(self):
        vol = substream(10, "ck").normal(size=(5, 5, 4))
        np.testing.assert_array_equal(channel_inhibit(vol, 2, row_chunk=3),
                                      channel_inhibit(vol, 2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_argmax_path_matches_topk_rows(self, seed):
        # few distinct levels, signed zeros included: most rows tie at the max
        rng = substream(seed, "ci1")
        levels = np.array([-1.0, -0.0, 0.0, 0.5, 1.0], dtype=np.float32)
        for shape in ((4, 5, 8), (2, 3, 3, 40)):
            vol = rng.choice(levels, size=shape)
            flat = vol.reshape(-1, shape[-1])
            # topk_rows' tie rule by a stable sort, not by its own argmax path
            keep = np.argsort(-flat, axis=1, kind="stable")[:, :1]
            expected = np.zeros_like(flat)
            np.put_along_axis(expected, keep, np.take_along_axis(flat, keep, axis=1), axis=1)
            got = channel_inhibit(vol, 1)
            np.testing.assert_array_equal(got, expected.reshape(shape))
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected.reshape(shape)))

    @pytest.mark.parametrize("bad", [0, 9])
    def test_k_ci_range(self, bad):
        with pytest.raises(KOutOfRange):
            channel_inhibit(np.zeros((2, 2, 8)), bad)


def pool_oracle(vol, kernel, stride):
    h, w, f = vol.shape
    hp = (h - kernel) // stride + 1
    wp = (w - kernel) // stride + 1
    out = np.empty((hp, wp, f), vol.dtype)
    for i in range(hp):
        for j in range(wp):
            win = vol[i * stride:i * stride + kernel,
                      j * stride:j * stride + kernel]
            out[i, j] = win.max(axis=(0, 1))
    return out


def max_pool_reference(volume, kernel, stride):
    """The one-pass pool: np.maximum over all kernel * kernel window
    offsets, in row-major order."""
    vol = np.asarray(volume)
    v4 = vol[None] if vol.ndim == 3 else vol
    n, h, w, f = v4.shape
    hp, wp = conv_side(h, kernel, stride), conv_side(w, kernel, stride)
    out = np.full((n, hp, wp, f), -np.inf, dtype=v4.dtype)
    for dy in range(kernel):
        ys = slice(dy, dy + (hp - 1) * stride + 1, stride)
        for dx in range(kernel):
            xs = slice(dx, dx + (wp - 1) * stride + 1, stride)
            np.maximum(out, v4[:, ys, xs, :], out=out)
    return out[0] if vol.ndim == 3 else out


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestMaxPool:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separable_matches_one_pass(self, seed):
        rng = substream(seed, "sep")
        # a tie-heavy volume mixes signed zeros, whose max keeps scan order
        tied = rng.choice(np.array([-1.0, -0.0, 0.0, 2.0], dtype=np.float32),
                          size=(3, 13, 11, 7))
        normal = rng.normal(size=(2, 26, 26, 5)).astype(np.float32)
        for vols in (tied, normal):
            for kernel, stride in ((7, 2), (3, 1), (2, 2), (4, 3)):
                assert_same_bits(max_pool(vols, kernel, stride),
                                 max_pool_reference(vols, kernel, stride))
                assert_same_bits(max_pool(vols[0], kernel, stride),
                                 max_pool_reference(vols[0], kernel, stride))

    def test_constant_volume(self):
        out = max_pool(np.full((9, 9, 2), 3.5), kernel=7, stride=2)
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 3.5))

    def test_single_spike(self):
        vol = np.zeros((8, 8, 1))
        vol[0, 0, 0] = 1.0
        out = max_pool(vol, kernel=3, stride=3)
        np.testing.assert_array_equal(out[..., 0], [[1, 0], [0, 1 - 1]])

    def test_mnist_grid_arithmetic(self):
        out = max_pool(np.zeros((26, 26, 1)), kernel=7, stride=2)
        assert out.shape == (10, 10, 1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_loop_oracle(self, seed):
        vol = substream(seed, "mp").normal(size=(7, 9, 3))
        for kernel, stride in ((2, 2), (3, 1), (4, 3)):
            np.testing.assert_array_equal(max_pool(vol, kernel, stride),
                                          pool_oracle(vol, kernel, stride))

    def test_batch_matches_single(self):
        vols = substream(11, "mb").normal(size=(3, 6, 6, 2))
        out = max_pool(vols, kernel=2, stride=2)
        for i in range(3):
            np.testing.assert_array_equal(out[i],
                                          max_pool(vols[i], 2, 2))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            max_pool(np.zeros((3, 3, 1)), kernel=7, stride=2)


class TestFeatureDim:
    def test_mnist_preset(self):
        assert conv_feature_dim(mnist_conv_config()) == 100_000

    def test_cifar_preset(self):
        assert conv_feature_dim(cifar_conv_config()) == 147_600

    def test_tiny_config(self):
        # 6x6, K=3 -> 4x4 conv grid; 2x2 pool stride 2 -> 2x2; 8 filters
        assert conv_feature_dim(tiny_config()) == 2 * 2 * 8

    def test_conv_grid_below_pool_kernel(self):
        config = ConvConfig(branches=(ConvBranch(3, 4, 0.1, 1e-2),), k_ci=1,
                            layout=(8, 8, 1))  # 6x6 grid < default pool 7
        with pytest.raises(TooSmall):
            conv_feature_dim(config)


class TestConfigValidation:
    def test_k_ci_above_smallest_branch(self):
        with pytest.raises(KOutOfRange):
            ConvConfig(branches=(ConvBranch(3, 4, 0.1, 1e-2),), k_ci=5,
                       layout=(9, 9, 1), pool_kernel=2)

    def test_kernel_exceeds_image(self):
        with pytest.raises(LayoutMismatch):
            ConvConfig(branches=(ConvBranch(10, 4, 0.1, 1e-2),), k_ci=1,
                       layout=(6, 6, 1), pool_kernel=2)

    def test_empty_branches(self):
        with pytest.raises(ValueError):
            ConvConfig(branches=(), k_ci=1, layout=(6, 6, 1))

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            ConvConfig(branches=(ConvBranch(3, 4, 0.1, 1e-2),), k_ci=1,
                       layout=(6, 6))

    def test_bad_branch_fields(self):
        with pytest.raises(ValueError):
            ConvBranch(0, 4, 0.1, 1e-2)
        with pytest.raises(ValueError):
            ConvBranch(3, 0, 0.1, 1e-2)


class TestTrainFilterBank:
    def test_filters_pulled_toward_unit_norm(self):
        config = tiny_config(branches=(ConvBranch(3, 8, 0.1, 5e-2),),
                             filter_t_max=100)
        bank = train_filter_bank(tiny_images(40), config, seed=1)
        norms = np.linalg.norm(bank.matrices[0].weights, axis=1)
        # rows start near sqrt(9) = 3; frequent winners settle at 1
        assert (np.abs(norms - 1.0) < 0.1).sum() >= 6
        assert norms.max() < 2.0

    def test_all_zero_patches_rejected(self):
        with pytest.raises(ValueError):
            train_filter_bank(np.zeros((4, 36)), tiny_config(), seed=0)

    @pytest.mark.parametrize("preset,products", [
        (mnist_conv_config, ("float64", "float32")),             # 500x9, 500x16
        (cifar_conv_config, ("float32", "float32", "float32")),  # 400x27, 400x48, 400x300
    ])
    def test_preset_banks_response_product(self, preset, products):
        """A preset bank of at least plasticity.F32_PRODUCT_MIN entries
        trains with the float32 response product; mnist K=4 sits on it."""
        config = preset()
        assert len(config.branches) == len(products)
        for br, want in zip(config.branches, products):
            d = br.kernel ** 2 * config.layout[2]
            X = substream(3, f"bank{br.kernel}").normal(size=(200, d))
            lc = LearningConfig(m=br.filters, p=2.0, delta=br.delta, rank_r=2,
                                eps0=br.eps0, t_max=1, batch=config.filter_batch)
            _, log = plasticity.train(X, lc)
            assert log.product_dtype == want, br


class TestConvFit:
    def test_deterministic(self):
        imgs = tiny_images(50, seed=12)
        a, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1, seed=7,
                        hash_overrides={"t_max": 15})
        b, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1, seed=7,
                        hash_overrides={"t_max": 15})
        np.testing.assert_array_equal(a.hash_sm.weights, b.hash_sm.weights)
        np.testing.assert_array_equal(
            conv_encode_many(a, imgs, 2), conv_encode_many(b, imgs, 2))

    def test_feature_store_reuse_matches_fresh_encode(self):
        imgs = tiny_images(30, seed=13)
        model, feats = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                                seed=3, hash_overrides={"t_max": 10})
        via_store = encode_features(model, feats, 2)
        via_images = conv_encode_many(model, imgs, 2)
        np.testing.assert_array_equal(via_store, via_images)

    def test_global_intensity_invariance_power_of_two(self):
        imgs = tiny_images(30, seed=14)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=3, hash_overrides={"t_max": 10})
        base = conv_encode_many(model, imgs, 2)
        np.testing.assert_array_equal(conv_encode_many(model, 2.0 * imgs, 2),
                                      base)
        np.testing.assert_array_equal(conv_encode_many(model, 0.5 * imgs, 2),
                                      base)

    def test_global_intensity_invariance_generic_factor(self):
        imgs = tiny_images(30, seed=15)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=4, hash_overrides={"t_max": 10})
        np.testing.assert_array_equal(conv_encode_many(model, 3.0 * imgs, 2),
                                      conv_encode_many(model, imgs, 2))

    def test_single_image_encode(self):
        imgs = tiny_images(30, seed=16)
        model, _ = conv_fit(imgs, tiny_config(), k=3, activity=0.1,
                            seed=5, hash_overrides={"t_max": 10})
        code = conv_encode_many(model, imgs[0], 3)
        np.testing.assert_array_equal(code, conv_encode_many(model, imgs[:1], 3))

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            conv_fit(np.empty((0, 36)), tiny_config(), k=2)

    def test_k_out_of_range_on_encode(self):
        imgs = tiny_images(20, seed=17)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=6, hash_overrides={"t_max": 5})
        with pytest.raises(KOutOfRange):
            conv_encode_many(model, imgs, model.hash_sm.m + 1)

    def test_k_out_of_range_before_forward_pass(self, monkeypatch):
        imgs = tiny_images(20, seed=17)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=6, hash_overrides={"t_max": 5})
        calls = []
        forward = convnet._features_block

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(convnet, "_features_block", counted)
        for k in (-1, 0, model.hash_sm.m + 1):
            with pytest.raises(KOutOfRange):
                conv_encode_many(model, imgs, k)
        assert calls == []
        conv_encode_many(model, imgs, 2)
        assert calls == [1]

    @pytest.mark.parametrize("branch", [ConvBranch(3, 6, 0.1, 1e-2),
                                        ConvBranch(2, 8, 0.1, 1e-2)],
                             ids=["filters", "kernel"])
    def test_bank_disagreeing_with_config_rejected(self, branch):
        # a 6-filter bank under the 8-filter config gives a narrower feature
        # block; a kernel-2 bank under the kernel-3 config gives the same
        # width on 6x6 images with 2x2 pooling, so only the check can see it
        imgs = tiny_images(30, seed=19)
        bank = train_filter_bank(imgs, tiny_config(branches=(branch,)), seed=0)
        with pytest.raises(DimensionMismatch):
            conv_features(bank, tiny_config(), imgs)
        with pytest.raises(DimensionMismatch):
            conv_fit(imgs, tiny_config(), k=2, activity=0.1, bank=bank,
                     hash_overrides={"t_max": 5})

    @pytest.mark.parametrize("branch", [ConvBranch(3, 6, 0.1, 1e-2),
                                        ConvBranch(2, 8, 0.1, 1e-2)],
                             ids=["filters", "kernel"])
    def test_hand_built_model_disagreeing_with_config_rejected(self, branch):
        # neither conv_fit nor load_conv_model: the model's own check must fire
        bank = train_filter_bank(tiny_images(30, seed=19),
                                 tiny_config(branches=(branch,)), seed=0)
        dim = conv_feature_dim(tiny_config())
        hash_sm = SynapseMatrix(np.ones((8, dim)), LearningConfig(m=8, seed=0))
        with pytest.raises(DimensionMismatch):
            ConvModel(tiny_config(), bank, hash_sm, np.zeros(dim))

    @pytest.mark.parametrize("hash_extra, mean_extra", [(1, 0), (1, 1), (0, -1)])
    def test_hand_built_model_of_another_width_rejected(self, hash_extra, mean_extra):
        bank = hand_bank(np.eye(4), kernel=2)
        config = identity_config(bank, (4, 4, 1))
        dim = conv_feature_dim(config)
        hash_sm = SynapseMatrix(np.ones((4, dim + hash_extra)), LearningConfig(m=4, seed=0))
        with pytest.raises(DimensionMismatch):
            ConvModel(config, bank, hash_sm, np.zeros(dim + mean_extra))

    def test_feature_dim_mismatch_on_encode(self):
        imgs = tiny_images(20, seed=18)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=6, hash_overrides={"t_max": 5})
        with pytest.raises(DimensionMismatch):
            encode_features(model, np.ones((3, 5)), 2)


class TestIdentityBankDegeneration:
    """A 1x1 image with an identity filter bank reduces the pipeline to
    the plain hasher on row-normalized inputs; the hash layers must agree
    weight for weight."""

    def test_matches_plain_biohash(self):
        rng = substream(19, "deg")
        X = rng.normal(size=(60, 5))
        bank = hand_bank(np.eye(5), kernel=1)
        config = ConvConfig(branches=bank.branches, k_ci=5, layout=(1, 1, 5),
                            pool_kernel=1, pool_stride=1)
        k, activity, seed = 2, 0.1, 21
        model, feats = conv_fit(X, config, k=k, activity=activity, seed=seed,
                                bank=bank, hash_overrides={"t_max": 15})
        # the conv features are exactly the float32 row-normalized inputs
        normed, _ = normalize_patches(X.astype(np.float32))
        np.testing.assert_array_equal(feats, normed)
        mean = normed.astype(np.float64).mean(axis=0)
        manual_cfg = LearningConfig(m=round(k / activity), t_max=15,
                                    seed=subseed(seed, "hash"))
        sm, _ = plasticity.train(normed, manual_cfg, shift=mean)
        np.testing.assert_array_equal(model.hash_sm.weights, sm.weights)
        centered = normed.astype(np.float64) - mean
        np.testing.assert_array_equal(
            conv_encode_many(model, X, k),
            hashers.biohash_encode_many(sm, centered, k))


class Interrupted(Exception):
    pass


class TestFeatureStore:
    def test_memmap_path_matches_ram(self, tmp_path, monkeypatch):
        # above ram_limit the store is a memmap over an unnamed temp file in
        # tempfile's directory, so no name is ever left behind there
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        imgs = tiny_images(25, seed=20)
        bank = train_filter_bank(imgs, tiny_config(), seed=2)
        ram = conv_features(bank, tiny_config(), imgs)
        disk = conv_features(bank, tiny_config(), imgs, ram_limit=0)
        assert not isinstance(ram, np.memmap)
        assert isinstance(disk, np.memmap)
        np.testing.assert_array_equal(disk, ram)
        assert list(tmp_path.iterdir()) == []

    def test_failed_hash_training_leaves_no_file(self, tmp_path, monkeypatch):
        imgs = tiny_images(25, seed=20)
        bank = train_filter_bank(imgs, tiny_config(), seed=2)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(convnet, "conv_features",
                            functools.partial(convnet.conv_features, ram_limit=0))
        on_disk = []

        def interrupted(X, config, **kwargs):
            on_disk.append(isinstance(X, np.memmap))
            raise Interrupted

        monkeypatch.setattr(plasticity, "train", interrupted)
        with pytest.raises(Interrupted):
            conv_fit(imgs, tiny_config(), k=2, activity=0.1, bank=bank)
        assert on_disk == [True]
        assert list(tmp_path.iterdir()) == []


def encode_features_reference(model, features, k, chunk=2048):
    """The conv hash layer's own float32 encoder, kept as the reference
    for hashers.biohash_encode_many with a shift and dtype=float32."""
    x = np.asarray(features)
    if x.ndim == 1:
        x = x[None, :]
    sm = model.hash_sm
    eff = plasticity.effective_weights(sm.weights, sm.config.p)
    eff32 = eff.astype(np.float32)
    offset = (eff @ model.feature_mean).astype(np.float32)
    codes = np.empty((x.shape[0], k), dtype=np.uint32)
    for start in range(0, x.shape[0], chunk):
        r = np.asarray(x[start:start + chunk], dtype=np.float32) @ eff32.T
        r -= offset
        codes[start:start + chunk] = hashers.topk_rows(r, k)
    return codes


def identity_model(weights, mean, p):
    """A model on 1x1 images whose features are the input rows, with the
    given hash weights and feature mean."""
    d = weights.shape[1]
    bank = hand_bank(np.eye(d), kernel=1)
    config = ConvConfig(branches=bank.branches, k_ci=d, layout=(1, 1, d),
                        pool_kernel=1, pool_stride=1)
    hash_sm = SynapseMatrix(weights, LearningConfig(m=weights.shape[0], p=p,
                                                    rank_r=1, seed=0))
    return ConvModel(config, bank, hash_sm, mean)


TIES = [0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 0.25]


@st.composite
def tied_features(draw):
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 9))
    x = draw(hnp.arrays(np.float32, (n, d), elements=st.sampled_from(TIES)))
    # a large common offset makes the float32 responses round, so the
    # offset must be rounded exactly as the reference rounds it
    x += np.float32(draw(st.sampled_from([0.0, 1e3, 1e6])))
    w = draw(hnp.arrays(np.float64, (m, d), elements=st.sampled_from(TIES)))
    mean = x.astype(np.float64).mean(axis=0) if draw(st.booleans()) else np.zeros(d)
    k = draw(st.sampled_from([1, m, draw(st.integers(1, m))]))
    return x, w, mean, k, draw(st.sampled_from([2.0, 3.0]))


class TestEncodeFeatures:
    @given(tied_features())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_ties(self, case):
        x, w, mean, k, p = case
        model = identity_model(w, mean, p)
        np.testing.assert_array_equal(encode_features(model, x, k),
                                      encode_features_reference(model, x, k))

    def test_matches_reference_across_chunks(self):
        rng = substream(24, "chunks")
        x = (1e3 + np.round(rng.normal(size=(5000, 6)), 1)).astype(np.float32)
        model = identity_model(rng.normal(size=(10, 6)), x.astype(np.float64).mean(axis=0), 2.0)
        np.testing.assert_array_equal(encode_features(model, x, 3),
                                      encode_features_reference(model, x, 3))


class TestConvBankIO:
    def make_bank(self):
        rng = substream(21, "io")
        w3 = rng.normal(size=(4, 9)).astype(np.float32).astype(np.float64)
        w2 = rng.normal(size=(6, 4)).astype(np.float32).astype(np.float64)
        b3 = ConvBranch(3, 4, 0.1, 1e-3)
        b2 = ConvBranch(2, 6, 0.2, 1e-3)
        return FilterBank(
            (b3, b2),
            (SynapseMatrix(w3, LearningConfig(m=4, delta=0.1, seed=5)),
             SynapseMatrix(w2, LearningConfig(m=6, delta=0.2, seed=6))))

    def test_roundtrip(self, tmp_path):
        bank = self.make_bank()
        path = tmp_path / "bank.bhcv"
        save_conv(path, bank)
        back = load_conv(path)
        assert [(b.kernel, b.filters, b.delta) for b in back.branches] == \
            [(3, 4, 0.1), (2, 6, 0.2)]
        for sm, sm2 in zip(bank.matrices, back.matrices):
            np.testing.assert_array_equal(sm.weights, sm2.weights)
            assert sm2.config.seed == sm.config.seed

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bhcv"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            load_conv(path)

    def test_truncated(self, tmp_path):
        bank = self.make_bank()
        path = tmp_path / "cut.bhcv"
        save_conv(path, bank)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedFile):
            load_conv(path)

    def test_mismatched_bank_rejected(self):
        config = LearningConfig(m=3, seed=0)
        with pytest.raises(DimensionMismatch):
            FilterBank((ConvBranch(2, 4, 0.0, 1e-2),),
                       (SynapseMatrix(np.zeros((3, 4)), config),))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A fitted two-branch model saved under a prefix, with an eps0 that
    is not the BHW1 default and a per-branch patch_subsample."""
    imgs = tiny_images(30, seed=23)
    config = tiny_config(branches=(ConvBranch(3, 8, 0.1, 1e-2),
                                   ConvBranch(2, 6, 0.2, 3e-2, patch_subsample=200)))
    model, _ = conv_fit(imgs, config, k=2, activity=0.1, seed=4,
                        hash_overrides={"t_max": 5})
    prefix = tmp_path_factory.mktemp("conv-model") / "model"
    save_conv_model(prefix, model)
    return model, prefix, imgs


def copy_with_json(prefix, tmp_path, edit):
    """Copy a saved model to tmp_path, passing its JSON document through edit."""
    out = tmp_path / "copy"
    for suffix in (".bhcv", ".hash.bhw1"):
        Path(str(out) + suffix).write_bytes(Path(str(prefix) + suffix).read_bytes())
    doc = json.loads(Path(str(prefix) + ".json").read_text())
    edit(doc)
    Path(str(out) + ".json").write_text(json.dumps(doc))
    return out


class TestConvModelIO:
    def test_roundtrip_keeps_config_and_branch_table(self, saved_model):
        model, prefix, _ = saved_model
        back = load_conv_model(prefix)
        assert back.config == model.config
        assert back.bank.branches == model.config.branches
        assert "stride" not in json.loads(Path(str(prefix) + ".json").read_text())

    def test_json_with_stride_one_loads(self, saved_model, tmp_path):
        model, prefix, imgs = saved_model
        back = load_conv_model(copy_with_json(prefix, tmp_path,
                                              lambda doc: doc.update(stride=1)))
        assert back.config.branches == model.config.branches
        np.testing.assert_array_equal(conv_encode_many(back, imgs, 2),
                                      conv_encode_many(model, imgs, 2))

    def test_json_with_other_stride_rejected(self, saved_model, tmp_path):
        _, prefix, _ = saved_model
        with pytest.raises(ParseError):
            load_conv_model(copy_with_json(prefix, tmp_path,
                                           lambda doc: doc.update(stride=2)))

    @pytest.mark.parametrize("field, value", [("kernel", 4), ("filters", 7),
                                              ("delta", 0.3)])
    def test_bhcv_table_disagreeing_with_json_rejected(self, saved_model, tmp_path,
                                                        field, value):
        _, prefix, _ = saved_model
        with pytest.raises(ParseError):
            load_conv_model(copy_with_json(prefix, tmp_path,
                                           lambda doc: doc["branches"][1].update({field: value})))

    def test_roundtrip_preserves_codes(self, tmp_path):
        imgs = tiny_images(30, seed=22)
        model, _ = conv_fit(imgs, tiny_config(), k=2, activity=0.1,
                            seed=9, hash_overrides={"t_max": 10})
        prefix = tmp_path / "model"
        save_conv_model(prefix, model)
        back = load_conv_model(prefix)
        doc = json.loads(Path(str(prefix) + ".json").read_text())
        assert doc["feature_dim"] == conv_feature_dim(tiny_config()) == back.hash_sm.d
        np.testing.assert_array_equal(back.feature_mean, model.feature_mean)
        assert back.config.layout == model.config.layout
        assert back.config.k_ci == model.config.k_ci
        np.testing.assert_array_equal(conv_encode_many(back, imgs, 2),
                                      conv_encode_many(model, imgs, 2))
