"""Positional-table properties, patch partition, and conditioning embeddings."""

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor
from rollcast.encoding import (
    IntervalEmbedding,
    TemporalEmbedding,
    conventional_pe,
    patchify,
    ring_pe_2d,
    similarity_matrix,
    unpatchify,
)
from rollcast.gridio import GridSpec
from rollcast.model import ModelConfig


def circular_distance(a, b, w):
    return min(abs(a - b), w - abs(a - b))


# -- ring positional encoding -----------------------------------------------------


def test_ring_similarity_depends_only_on_circular_distance():
    # brute force over all longitude pairs on one latitude row
    for w, D in [(8, 16), (16, 64)]:
        table = ring_pe_2d(4, w, D)
        sim = similarity_matrix(table)[:w, :w]  # row 0 of the token grid
        for a in range(w):
            for b in range(w):
                d = circular_distance(a, b, w)
                assert abs(sim[a, b] - sim[0, d]) < 1e-9


def test_ring_hand_picked_equal_distance_pairs():
    w = 8
    sim = similarity_matrix(ring_pe_2d(4, w, 16))[:w, :w]
    assert abs(sim[0, 1] - sim[0, 7]) < 1e-9  # dis 1 both ways around
    assert abs(sim[2, 4] - sim[6, 0]) < 1e-9  # dis 2 both


def test_ring_self_similarity_constant_along_a_row():
    table = ring_pe_2d(4, 8, 16)
    sim = similarity_matrix(table)
    diag = np.diag(sim)[:8]
    np.testing.assert_allclose(diag, diag[0], atol=1e-9)


def test_ring_latitude_axis_is_not_circular():
    h, w = 4, 8
    sim = similarity_matrix(ring_pe_2d(h, w, 16))
    same_col_adjacent = sim[0 * w, 1 * w]  # rows 0 and 1, same longitude
    same_col_seam = sim[0 * w, (h - 1) * w]  # rows 0 and h-1
    assert abs(same_col_seam - same_col_adjacent) > 1e-3


def test_ring_vs_conventional_endpoint_contrast():
    for w, D in [(8, 16), (16, 64), (32, 64)]:
        ring = similarity_matrix(ring_pe_2d(4, w, D))[:w, :w]
        conv = similarity_matrix(conventional_pe(w, D))
        assert ring[0, w - 1] >= ring[0, 2]  # endpoints as close as neighbors
        assert conv[0, w - 1] < conv[0, 1]  # flat table: endpoints look far


# -- conventional positional encoding ------------------------------------------------


def test_conventional_row_zero_alternates_zero_one():
    table = conventional_pe(8, 16)
    np.testing.assert_allclose(table[0, 0::2], 0.0, atol=1e-15)
    np.testing.assert_allclose(table[0, 1::2], 1.0, atol=1e-15)


def test_conventional_table_deterministic():
    a = conventional_pe(16, 32)
    b = conventional_pe(16, 32)
    np.testing.assert_array_equal(a, b)


def test_conventional_similarity_monotone_near_diagonal():
    sim = similarity_matrix(conventional_pe(32, 64))
    for k in range(30):
        assert sim[k, k] > sim[k, k + 1] > sim[k, k + 2]


# -- tokenizer ------------------------------------------------------------------------


SPEC = GridSpec.cell_centered(2, 8, 16)
CFG = ModelConfig(embed_dim=32, patch_size=4)
PATCH_DIM = CFG.patch_size * CFG.patch_size * SPEC.num_vars


def test_patchify_partition_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(size=SPEC.shape)
    patches = patchify(x, CFG.patch_size)
    assert patches.shape == (2 * 4, 4 * 4 * 2)
    np.testing.assert_array_equal(unpatchify(patches, SPEC.shape, CFG.patch_size), x)


# The forecaster's tokenizer is patchify followed by one linear map (see
# ForecastModel.body_tokens); these tests run that same pair of operations.


def test_tokenize_one_hot_field_localizes_to_one_token():
    values = np.zeros(SPEC.shape)
    values[1, 5, 9] = 1.0  # token row 5//4=1, col 9//4=2 -> token index 1*4+2=6
    # embed_dim == patch_dim, so an identity weight keeps each patch as its token
    z = dc.matmul(Tensor(patchify(values, CFG.patch_size)), Tensor(np.eye(PATCH_DIM)))
    nonzero_rows = np.flatnonzero(np.any(z.data != 0.0, axis=1))
    assert list(nonzero_rows) == [6]


def test_tokenize_matches_per_patch_matrix_products():
    rng = np.random.default_rng(2)
    values = rng.normal(size=SPEC.shape)
    w = Tensor(rng.normal(size=(PATCH_DIM, CFG.embed_dim)))
    b = Tensor(rng.normal(size=(1, CFG.embed_dim)))
    z = dc.linear(Tensor(patchify(values, CFG.patch_size)), w, b).data
    P = CFG.patch_size
    h, w_tok = SPEC.lat_points // P, SPEC.lon_points // P
    for r in range(h):
        for c in range(w_tok):
            patch = values[:, r * P : (r + 1) * P, c * P : (c + 1) * P]
            flat = patch.reshape(-1)  # (v, lat, lon) order
            expected = flat @ w.data + b.data[0]
            np.testing.assert_allclose(z[r * w_tok + c], expected, atol=1e-12)


# -- learned embeddings ------------------------------------------------------------------


def test_interval_embedding_lookup_and_unknown_interval():
    emb = IntervalEmbedding((6, 12, 24), 16, np.random.default_rng(4))
    np.testing.assert_array_equal(emb(6).data, emb(6).data)
    assert not np.array_equal(emb(6).data, emb(12).data)
    with pytest.raises(KeyError, match="18"):
        emb(18)


def test_interval_embedding_gradient_hits_exactly_one_row():
    emb = IntervalEmbedding((6, 12, 24), 16, np.random.default_rng(5))
    out = emb(12)
    dc.backward(dc.tensor_sum(out))
    grad = emb.table.grad
    assert np.all(grad[1] == 1.0)
    assert np.all(grad[[0, 2]] == 0.0)


def test_temporal_embedding_remaining_phase_features():
    emb = TemporalEmbedding(16, season_length_days=60, norm_hours=240.0,
                            rng=np.random.default_rng(6), phase_hours=(12, 24))
    f = emb.features(1000, 120, 18, 138)
    assert f.shape == (11,) and emb.weight.data.shape == (11, 16)
    # 18h remaining: phase 3*pi within 12h, 1.5*pi within 24h
    np.testing.assert_allclose(
        f[7:], [np.sin(3 * np.pi), np.sin(1.5 * np.pi), np.cos(3 * np.pi), np.cos(1.5 * np.pi)]
    )
    plain = TemporalEmbedding(16, season_length_days=60, norm_hours=240.0, rng=np.random.default_rng(6))
    np.testing.assert_array_equal(plain.features(1000, 120, 18, 138), f[:7])


def test_temporal_embedding_contract():
    emb = TemporalEmbedding(16, season_length_days=60, norm_hours=240.0, rng=np.random.default_rng(6))
    start, end, mid_a, mid_b = emb(
        [(1000, 0, 138, 138), (1000, 138, 0, 138), (1000, 6, 132, 138), (1000, 12, 126, 138)]
    ).data
    one = emb([(1000, 0, 138, 138)])
    assert one.shape == (1, 16)
    np.testing.assert_allclose(one.data[0], start, rtol=0, atol=1e-12)
    assert not np.array_equal(mid_a, mid_b)
    assert not np.array_equal(start, end)
    with pytest.raises(ValueError, match="inconsistent"):
        emb([(1000, 6, 100, 138)])
    with pytest.raises(ValueError):
        emb([(1000, -6, 144, 138)])
