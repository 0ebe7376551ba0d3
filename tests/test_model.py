import math

import numpy as np
import pytest
from conftest import assert_blocks_view_flat

from artrip.data import Query, Trajectory, hour_bucket
from artrip.guidance import build_guidance_matrix, zero_guidance
from artrip.model import (
    ARCH_ONE_SHOT,
    ARCH_RECURRENT,
    ModelConfig,
    forward_one_shot,
    forward_recurrent_step,
    init_params,
    init_recurrent_state,
    train,
)
from artrip.model import one_shot, recurrent
from artrip.model.params import block_shapes
from artrip.model.recurrent import forward_teacher
from artrip.model.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, loss_and_grads

K = 6
M_MAX = 5


def tiny_config(arch=ARCH_ONE_SHOT, **kw):
    defaults = dict(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


def toy_trajectories():
    return [
        Trajectory(pois=(0, 2, 3, 1), times=(0, 3600, 7200, 10800)),
        Trajectory(pois=(0, 4, 1), times=(0, 3600, 7200)),
        Trajectory(pois=(5, 2, 4, 1), times=(1800, 5400, 9000, 12600)),
        Trajectory(pois=(0, 3, 1), times=(0, 3600, 7200)),
    ]


class TestConfig:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="arch"):
            ModelConfig(arch="bilstm")

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(arch=ARCH_ONE_SHOT, embed_dim=10, num_heads=4)

    def test_recurrent_ignores_head_divisibility(self):
        cfg = ModelConfig(arch=ARCH_RECURRENT, embed_dim=10, num_heads=4)
        assert cfg.embed_dim == 10

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ModelConfig(arch=ARCH_ONE_SHOT, alpha=-0.5)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_heads", 0),
            ("num_heads", -2),
            ("num_layers", -1),
            ("hidden_dim", 0),
            ("alpha", math.nan),
            ("alpha", math.inf),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
        ],
    )
    def test_rejects_bad_setting_naming_it(self, arch, key, value):
        with pytest.raises(ValueError, match=key):
            ModelConfig(arch=arch, **{key: value})

    def test_accepts_boundary_settings(self):
        cfg = ModelConfig(num_heads=1, num_layers=0, hidden_dim=1, alpha=0.0, learning_rate=1e-12)
        assert (cfg.num_heads, cfg.num_layers, cfg.alpha) == (1, 0, 0.0)


class TestInit:
    def test_same_seed_same_blocks(self):
        a = init_params(tiny_config(seed=3), k=K, m_max=M_MAX)
        b = init_params(tiny_config(seed=3), k=K, m_max=M_MAX)
        for name in a.blocks:
            np.testing.assert_array_equal(a.blocks[name], b.blocks[name])

    def test_different_seed_differs(self):
        a = init_params(tiny_config(seed=0), k=K, m_max=M_MAX)
        b = init_params(tiny_config(seed=1), k=K, m_max=M_MAX)
        assert not np.array_equal(a.blocks["poi_embeddings"], b.blocks["poi_embeddings"])

    def test_shapes_match_declaration(self):
        params = init_params(tiny_config(), k=K, m_max=M_MAX)
        shapes = block_shapes(params.config, K, M_MAX)
        assert list(shapes) == list(params.blocks)
        for name, shape in shapes.items():
            assert params.blocks[name].shape == shape, name

    def test_norm_layers_start_as_identity(self):
        params = init_params(tiny_config(), k=K, m_max=M_MAX)
        np.testing.assert_array_equal(params.blocks["layer0.ln1_gamma"], 1.0)
        np.testing.assert_array_equal(params.blocks["layer0.ln1_beta"], 0.0)
        np.testing.assert_array_equal(params.blocks["final_ln_beta"], 0.0)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_blocks_are_views_of_flat(self, arch):
        assert_blocks_view_flat(init_params(tiny_config(arch=arch), k=K, m_max=M_MAX))

    def test_recurrent_block_set(self):
        params = init_params(tiny_config(arch=ARCH_RECURRENT), k=K, m_max=M_MAX)
        d = 8
        assert params.blocks["query_w"].shape == (3 * d, d)
        assert params.blocks["state_w"].shape == (d, d)
        assert params.blocks["head"].shape == (d, K)
        np.testing.assert_array_equal(params.blocks["state_b"], 0.0)


class TestForward:
    def test_one_shot_shape_and_determinism(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
        logits = forward_one_shot(q, params)
        assert logits.shape == (4, K)
        np.testing.assert_array_equal(logits, forward_one_shot(q, params))

    def test_one_shot_handles_lengths_past_horizon(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=3)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=5)
        assert forward_one_shot(q, params).shape == (5, K)

    def test_recurrent_teacher_matches_stepwise(self):
        params = init_params(tiny_config(arch=ARCH_RECURRENT, seed=4), k=K, m_max=M_MAX)
        pois = (0, 2, 4, 1)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
        rows, _ = forward_teacher(q, pois, params)
        state = init_recurrent_state(q, params)
        for i, prev in enumerate(pois[:-1]):
            row, state = forward_recurrent_step(state, prev, params)
            np.testing.assert_allclose(row, rows[i], atol=1e-12)

    @pytest.mark.parametrize("n", range(2, M_MAX + 3))
    def test_recurrent_teacher_rows_match_decode_steps(self, n):
        params = init_params(tiny_config(arch=ARCH_RECURRENT, seed=n), k=K, m_max=M_MAX)
        pois = tuple(int(p) for p in np.random.default_rng(n).integers(0, 3, size=n))
        q = Query(p_s=pois[0], t_s=0, p_e=pois[-1], t_e=3600 * n, n=n)
        rows, cache = forward_teacher(q, pois, params)
        state = init_recurrent_state(q, params)
        for i, prev in enumerate(pois[:-1]):
            row, state = forward_recurrent_step(state, prev, params)
            np.testing.assert_allclose(row, rows[i], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(state, cache["states"][i + 1], rtol=1e-12, atol=1e-15)

    def test_recurrent_rows_cover_positions_two_to_n(self):
        params = init_params(tiny_config(arch=ARCH_RECURRENT, seed=4), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3)
        rows, _ = forward_teacher(q, (0, 2, 1), params)
        assert rows.shape == (2, K)


def fresh_rows(q, params):
    return one_shot.forward_with_cache(q, params)[0]


class TestOneShotMemo:
    def test_repeat_query_returns_the_cached_read_only_rows(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
        rows = forward_one_shot(q, params)
        assert forward_one_shot(q, params) is rows
        assert np.array_equal(rows, fresh_rows(q, params))
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_in_place_block_edit_recomputes(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
        before = forward_one_shot(q, params)
        params.blocks["layer0.ffn_w1"][0, 0] += 0.5
        after = forward_one_shot(q, params)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, fresh_rows(q, params))

    def test_num_heads_change_recomputes(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        q = Query(p_s=3, t_s=0, p_e=1, t_e=10800, n=5)
        before = forward_one_shot(q, params)
        params.config.num_heads = 4
        after = forward_one_shot(q, params)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, fresh_rows(q, params))

    def test_queries_share_an_entry_only_within_an_hour_bucket(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=3600, p_e=1, t_e=7200, n=4)
        same = Query(p_s=0, t_s=3600 + 3599, p_e=1, t_e=7200 + 86400, n=4)
        later = Query(p_s=0, t_s=7200, p_e=1, t_e=7200, n=4)
        assert hour_bucket(q.t_s) == hour_bucket(same.t_s) != hour_bucket(later.t_s)
        rows = forward_one_shot(q, params)
        assert forward_one_shot(same, params) is rows
        assert len(params.row_memo) == 1
        other = forward_one_shot(later, params)
        assert other is not rows and not np.array_equal(other, rows)
        assert len(params.row_memo) == 2
        for query in (q, same, later):
            assert np.array_equal(forward_one_shot(query, params), fresh_rows(query, params))

    def test_each_field_the_input_reads_separates_entries(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        base = Query(p_s=0, t_s=3600, p_e=1, t_e=7200, n=4)
        variants = [
            base,
            Query(p_s=2, t_s=3600, p_e=1, t_e=7200, n=4),
            Query(p_s=0, t_s=7200, p_e=1, t_e=7200, n=4),
            Query(p_s=0, t_s=3600, p_e=2, t_e=7200, n=4),
            Query(p_s=0, t_s=3600, p_e=1, t_e=10800, n=4),
        ]
        for q in variants:
            assert np.array_equal(forward_one_shot(q, params), fresh_rows(q, params))
        assert len(params.row_memo) == len(variants)
        longer = Query(p_s=0, t_s=3600, p_e=1, t_e=7200, n=5)
        assert forward_one_shot(longer, params).shape == (5, K)

    def test_nan_parameters_match_a_fresh_forward(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        params.blocks["head"][0, 0] = math.nan
        q = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
        for _ in range(2):
            rows = forward_one_shot(q, params)
            assert np.isnan(rows).any()
            assert np.array_equal(rows, fresh_rows(q, params), equal_nan=True)

    def test_memo_never_holds_more_than_the_cap(self):
        params = init_params(tiny_config(seed=2), k=K, m_max=M_MAX)
        queries = [
            Query(p_s=p_s, t_s=3600 * hour, p_e=p_e, t_e=0, n=n)
            for n in (2, 3)
            for p_s in range(K)
            for p_e in range(K)
            for hour in range(24)
        ]
        assert len(queries) > one_shot.MEMO_CAP
        sizes = []
        for q in queries:
            forward_one_shot(q, params)
            sizes.append(len(params.row_memo))
        assert max(sizes) == one_shot.MEMO_CAP
        # the call after a full memo starts it over
        assert sizes[one_shot.MEMO_CAP] == 1
        last = queries[-1]
        assert np.array_equal(forward_one_shot(last, params), fresh_rows(last, params))


class TestBackward:
    def test_one_shot_scatter_matches_per_slot_loop(self):
        # a round trip whose endpoints share a POI and an hour bucket, so
        # two slots accumulate into the same table rows
        params = init_params(tiny_config(seed=6), k=K, m_max=M_MAX)
        q = Query(p_s=2, t_s=3600, p_e=2, t_e=3600 + 86400, n=M_MAX)
        logits, cache = one_shot.forward_with_cache(q, params)
        dlogits = np.random.default_rng(0).standard_normal(logits.shape)
        grads = params.views(one_shot.backward(params, cache, dlogits))
        # positions below m_max are distinct, so their rows are the slot gradients
        dx = grads["position_embeddings"][: q.n]
        poi = np.zeros_like(grads["poi_embeddings"])
        time = np.zeros_like(grads["time_embeddings"])
        mask = np.zeros_like(grads["mask_embedding"])
        for i, row in enumerate(dx):
            if i in (0, q.n - 1):
                poi[q.p_s if i == 0 else q.p_e] += row
                time[hour_bucket(q.t_s if i == 0 else q.t_e)] += row
            else:
                mask += row
        np.testing.assert_array_equal(grads["poi_embeddings"], poi)
        np.testing.assert_array_equal(grads["time_embeddings"], time)
        np.testing.assert_array_equal(grads["mask_embedding"], mask)


def reference_layer_norm(x, gamma, beta):
    """Layer norm through ndarray.mean/var: the reference for the sum form."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + one_shot.LN_EPS)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def reference_layer_norm_backward(dy, cache):
    xhat, inv_std, gamma = cache
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def reference_recurrent_backward(params, cache, drows):
    """Backprop through time with np.outer: the reference for the broadcasts."""
    blocks = params.blocks
    grad, grads, _ = params.zero_grads()
    states = cache["states"]
    inputs = cache["inputs"]
    ds_carry = np.zeros_like(states[0])
    for t in range(len(inputs), 0, -1):
        s = states[t]
        ds = drows[t - 1] @ blocks["head"].T + ds_carry
        grads["head"] += np.outer(s, drows[t - 1])
        dpre = ds * (1.0 - s**2)
        grads["input_w"] += np.outer(blocks["poi_embeddings"][inputs[t - 1]], dpre)
        grads["state_w"] += np.outer(states[t - 1], dpre)
        grads["state_b"] += dpre
        grads["poi_embeddings"][inputs[t - 1]] += dpre @ blocks["input_w"].T
        ds_carry = dpre @ blocks["state_w"].T
    s0 = states[0]
    dq_pre = ds_carry * (1.0 - s0**2)
    grads["query_w"] += np.outer(cache["qvec"], dq_pre)
    grads["query_b"] += dq_pre
    dqvec = dq_pre @ blocks["query_w"].T
    d = params.config.embed_dim
    p_s, start_t, p_e, end_t, pos = cache["sources"]
    grads["poi_embeddings"][p_s] += dqvec[:d]
    grads["time_embeddings"][start_t] += dqvec[:d]
    grads["poi_embeddings"][p_e] += dqvec[d : 2 * d]
    grads["time_embeddings"][end_t] += dqvec[d : 2 * d]
    grads["position_embeddings"][pos] += dqvec[2 * d :]
    return grad


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_layer_norm_matches_mean_var_reference(self, seed):
        rng = np.random.default_rng(seed)
        for n, d in ((1, 1), (2, 8), (6, 32), (8, 33), (3, 64)):
            for scale in (1e-3, 1.0, 1e3):
                x = rng.standard_normal((n, d)) * scale + rng.standard_normal()
                gamma = 1.0 + 0.1 * rng.standard_normal(d)
                beta = 0.1 * rng.standard_normal(d)
                dy = rng.standard_normal((n, d)) * scale
                out, cache = one_shot._layer_norm(x, gamma, beta)
                ref_out, ref_cache = reference_layer_norm(x, gamma, beta)
                assert np.array_equal(out, ref_out)
                for got, want in zip(cache, ref_cache):
                    assert np.array_equal(got, want)
                for got, want in zip(
                    one_shot._layer_norm_backward(dy, cache),
                    reference_layer_norm_backward(dy, ref_cache),
                ):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, M_MAX, M_MAX + 2])
    def test_recurrent_backward_matches_outer_reference(self, n):
        params = init_params(tiny_config(arch=ARCH_RECURRENT, seed=n), k=K, m_max=M_MAX)
        rng = np.random.default_rng(n)
        pois = tuple(int(p) for p in rng.integers(0, K, size=n))
        q = Query(p_s=pois[0], t_s=0, p_e=pois[-1], t_e=3600 * n, n=n)
        rows, cache = forward_teacher(q, pois, params)
        drows = rng.standard_normal(rows.shape)
        got = recurrent.backward(params, cache, drows)
        # whole-trajectory products sum in another order than the per-step loop
        np.testing.assert_allclose(
            got, reference_recurrent_backward(params, cache, drows), rtol=1e-12, atol=1e-15
        )


def reference_attention_forward(a, blocks, prefix, num_heads):
    """Three separate Q, K and V projections: the reference for the stacked one."""
    n, d = a.shape
    dh = d // num_heads
    q = a @ blocks[prefix + "attn_wq"]
    k = a @ blocks[prefix + "attn_wk"]
    v = a @ blocks[prefix + "attn_wv"]
    qh = q.reshape(n, num_heads, dh).transpose(1, 0, 2)
    kh = k.reshape(n, num_heads, dh).transpose(1, 0, 2)
    vh = v.reshape(n, num_heads, dh).transpose(1, 0, 2)
    scale = 1.0 / np.sqrt(dh)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    attn = one_shot._softmax_rows(scores)
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(n, d)
    out = ctx @ blocks[prefix + "attn_wo"]
    return out, (a, qh, kh, vh, attn, ctx, scale)


def reference_attention_backward(dout, cache, blocks, prefix, grads):
    a, qh, kh, vh, attn, ctx, scale = cache
    n, d = a.shape
    num_heads = qh.shape[0]
    dh = d // num_heads
    grads[prefix + "attn_wo"] += ctx.T @ dout
    dctx = (dout @ blocks[prefix + "attn_wo"].T).reshape(n, num_heads, dh).transpose(1, 0, 2)
    dattn = dctx @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 2, 1) @ qh
    dq = dqh.transpose(1, 0, 2).reshape(n, d)
    dk = dkh.transpose(1, 0, 2).reshape(n, d)
    dv = dvh.transpose(1, 0, 2).reshape(n, d)
    grads[prefix + "attn_wq"] += a.T @ dq
    grads[prefix + "attn_wk"] += a.T @ dk
    grads[prefix + "attn_wv"] += a.T @ dv
    return (
        dq @ blocks[prefix + "attn_wq"].T
        + dk @ blocks[prefix + "attn_wk"].T
        + dv @ blocks[prefix + "attn_wv"].T
    )


def reference_one_shot_backward(params, cache, dlogits):
    """Per-block backward with separate Q/K/V and np.add.at for every position row."""
    blocks = params.blocks
    grad = np.zeros_like(params.flat)
    grads = params.views(grad)
    grads["head"] += cache["z"].T @ dlogits
    dz = dlogits @ blocks["head"].T
    dx, dgamma, dbeta = one_shot._layer_norm_backward(dz, cache["final_ln"])
    grads["final_ln_gamma"] += dgamma
    grads["final_ln_beta"] += dbeta
    for layer_cache in reversed(cache["layers"]):
        prefix = layer_cache["prefix"]
        grads[prefix + "ffn_w2"] += layer_cache["r"].T @ dx
        grads[prefix + "ffn_b2"] += dx.sum(axis=0)
        dr = dx @ blocks[prefix + "ffn_w2"].T
        du = one_shot._gelu_backward(dr, layer_cache["u"], layer_cache["gelu_t"])
        grads[prefix + "ffn_w1"] += layer_cache["f_in"].T @ du
        grads[prefix + "ffn_b1"] += du.sum(axis=0)
        df_in = du @ blocks[prefix + "ffn_w1"].T
        dx1_from_ffn, dgamma, dbeta = one_shot._layer_norm_backward(df_in, layer_cache["ln2"])
        grads[prefix + "ln2_gamma"] += dgamma
        grads[prefix + "ln2_beta"] += dbeta
        dx1 = dx + dx1_from_ffn
        da_in = reference_attention_backward(dx1, layer_cache["attn"], blocks, prefix, grads)
        dx0_from_attn, dgamma, dbeta = one_shot._layer_norm_backward(da_in, layer_cache["ln1"])
        grads[prefix + "ln1_gamma"] += dgamma
        grads[prefix + "ln1_beta"] += dbeta
        dx = dx1 + dx0_from_attn
    slots, pois, hours = cache["ends"]
    np.add.at(grads["position_embeddings"], cache["pos_idx"], dx)
    np.add.at(grads["poi_embeddings"], pois, dx[slots])
    np.add.at(grads["time_embeddings"], hours, dx[slots])
    grads["mask_embedding"] += dx[1:-1].sum(axis=0)
    return grad


def trained_params(arch, seed, **kw):
    """Parameters after a few steps, so no block is still at its initial value."""
    trajs = toy_trajectories()
    cfg = tiny_config(arch=arch, epochs=2, seed=seed, **kw)
    return train(trajs, build_guidance_matrix(trajs, k=K), cfg).params


class TestStackedAttention:
    @pytest.mark.parametrize("num_heads, embed_dim", [(1, 8), (2, 8), (4, 8), (2, 32)])
    @pytest.mark.parametrize("n", [1, 2, 3, M_MAX, M_MAX + 2])
    def test_matches_separate_projections(self, num_heads, embed_dim, n):
        params = trained_params(ARCH_ONE_SHOT, n, num_layers=2, num_heads=num_heads, embed_dim=embed_dim)
        rng = np.random.default_rng(n)
        for layer, prefix in enumerate(("layer0.", "layer1.")):
            a = rng.standard_normal((n, embed_dim))
            dout = rng.standard_normal((n, embed_dim))
            wqkv, wo = params.qkv[layer], params.blocks[prefix + "attn_wo"]
            out, cache = one_shot._attention_forward(a, wqkv, wo, num_heads)
            ref_out, ref_cache = reference_attention_forward(a, params.blocks, prefix, num_heads)
            assert np.array_equal(out, ref_out)
            for got, want in zip(cache, ref_cache):
                assert np.array_equal(got, want)
            buffer = params.zero_grads()
            da = one_shot._attention_backward(
                dout, cache, wqkv, wo, buffer.qkv[layer], buffer.blocks[prefix + "attn_wo"]
            )
            ref_grads = params.views(np.zeros_like(params.flat))
            ref_da = reference_attention_backward(dout, ref_cache, params.blocks, prefix, ref_grads)
            assert np.array_equal(da, ref_da)
            for name in ("attn_wq", "attn_wk", "attn_wv", "attn_wo"):
                assert np.array_equal(buffer.blocks[prefix + name], ref_grads[prefix + name])

    def test_qkv_views_share_memory_with_the_blocks(self):
        params = init_params(tiny_config(num_layers=2), k=K, m_max=M_MAX)
        for layer, wqkv in enumerate(params.qkv):
            prefix = f"layer{layer}."
            assert wqkv.shape == (3, 8, 8) and np.shares_memory(wqkv, params.flat)
            for i, name in enumerate(("attn_wq", "attn_wk", "attn_wv")):
                assert np.array_equal(wqkv[i], params.blocks[prefix + name])
                params.blocks[prefix + name][0, 0] += 1.0
                assert wqkv[i][0, 0] == params.blocks[prefix + name][0, 0]
        assert init_params(tiny_config(arch=ARCH_RECURRENT), k=K, m_max=M_MAX).qkv == ()

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, M_MAX, M_MAX + 2])
    def test_backward_matches_per_block_reference(self, num_layers, n):
        params = trained_params(ARCH_ONE_SHOT, 10 + n, num_layers=num_layers)
        q = Query(p_s=1, t_s=3600, p_e=4, t_e=7200 * n, n=n)
        logits, cache = one_shot.forward_with_cache(q, params)
        dlogits = np.random.default_rng(n).standard_normal(logits.shape)
        want = reference_one_shot_backward(params, cache, dlogits)
        assert np.array_equal(one_shot.backward(params, cache, dlogits), want)
        # a used buffer is zeroed first, not added to
        buffer = params.zero_grads()
        buffer.flat[...] = 7.0
        got = one_shot.backward(params, cache, dlogits, buffer)
        assert got is buffer.flat
        assert np.array_equal(got, want)


def forward_for_backward(arch, params, traj):
    """Score rows, cache and the architecture's backward for one trajectory."""
    q = Query(p_s=traj.pois[0], t_s=traj.times[0], p_e=traj.pois[-1], t_e=traj.times[-1], n=len(traj))
    if arch == ARCH_ONE_SHOT:
        return (*one_shot.forward_with_cache(q, params), one_shot.backward)
    return (*forward_teacher(q, traj.pois, params), recurrent.backward)


class TestGradientBuffer:
    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_without_a_buffer_each_call_returns_a_new_vector(self, arch):
        params = trained_params(arch, 3)
        rows, cache, backward = forward_for_backward(arch, params, toy_trajectories()[0])
        drows = np.random.default_rng(0).standard_normal(rows.shape)
        first = backward(params, cache, drows)
        kept = first.copy()
        second = backward(params, cache, drows)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, params.flat)
        assert np.array_equal(first, kept) and np.array_equal(second, kept)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_with_a_buffer_the_gradient_is_written_into_it(self, arch):
        params = trained_params(arch, 3)
        pm = build_guidance_matrix(toy_trajectories(), k=K)
        buffer = params.zero_grads()
        for traj in toy_trajectories():
            _, fresh = loss_and_grads(traj, params, pm, 1.0)
            _, got = loss_and_grads(traj, params, pm, 1.0, buffer)
            assert got is buffer.flat
            assert np.array_equal(got, fresh)


class _DictAdam:
    """Per-block Adam over a dict of arrays: the reference for the flat update."""

    def __init__(self, params):
        self.m = {name: np.zeros_like(b) for name, b in params.blocks.items()}
        self.v = {name: np.zeros_like(b) for name, b in params.blocks.items()}
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, block in params.blocks.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            block -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def reference_train(trajectories, pm, config):
    params = init_params(config, pm.k, pm.m_max)
    adam = _DictAdam(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch_losses = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in shuffle_rng.permutation(len(trajectories)):
            loss, grad = loss_and_grads(trajectories[idx], params, pm, config.alpha)
            adam.step(params, params.views(grad), config.learning_rate)
            total += loss
        epoch_losses.append(float(total / len(trajectories)))
    return params, epoch_losses


class TestTrain:
    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_flat_adam_matches_per_block_reference(self, arch, alpha):
        trajs = toy_trajectories()
        pm = build_guidance_matrix(trajs, k=K)
        cfg = tiny_config(arch=arch, epochs=4, seed=7, alpha=alpha)
        result = train(trajs, pm, cfg)
        ref_params, ref_losses = reference_train(trajs, pm, cfg)
        assert result.epoch_losses == ref_losses
        assert np.array_equal(result.params.flat, ref_params.flat)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_flat_adam_matches_reference_two_layers_past_the_horizon(self, arch, alpha):
        # the guidance horizon comes from the short routes, so the long one
        # runs past m_max and takes the np.add.at scatter of position rows
        trajs = toy_trajectories()
        pm = build_guidance_matrix(trajs, k=K)
        long = Trajectory(pois=(5, 0, 2, 4, 3, 1, 2), times=tuple(3600 * i for i in range(7)))
        assert len(long) > pm.m_max
        cfg = tiny_config(arch=arch, num_layers=2, epochs=3, seed=9, alpha=alpha)
        with pytest.warns(UserWarning, match="horizon"):
            result = train([*trajs, long], pm, cfg)
            ref_params, ref_losses = reference_train([*trajs, long], pm, cfg)
        assert result.epoch_losses == ref_losses
        assert np.array_equal(result.params.flat, ref_params.flat)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_loss_decreases(self, arch):
        trajs = toy_trajectories()
        pm = zero_guidance(K, M_MAX)
        cfg = tiny_config(arch=arch, epochs=20, seed=0)
        result = train(trajs, pm, cfg)
        assert len(result.epoch_losses) == 20
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_epoch_losses_are_plain_floats(self):
        result = train(toy_trajectories(), zero_guidance(K, M_MAX), tiny_config(epochs=2))
        assert all(type(x) is float for x in result.epoch_losses)

    def test_deterministic_given_seed(self):
        trajs = toy_trajectories()
        pm = build_guidance_matrix(trajs, k=K)
        cfg = tiny_config(epochs=3, seed=5, alpha=1.0)
        a = train(trajs, pm, cfg)
        b = train(trajs, pm, cfg)
        assert a.epoch_losses == b.epoch_losses
        for name in a.params.blocks:
            np.testing.assert_array_equal(a.params.blocks[name], b.params.blocks[name])

    def test_guidance_changes_training(self):
        trajs = toy_trajectories()
        cfg = tiny_config(epochs=3, seed=0)
        with_pm = train(trajs, build_guidance_matrix(trajs, k=K), cfg)
        without = train(trajs, zero_guidance(K, M_MAX), cfg)
        assert with_pm.epoch_losses != without.epoch_losses

    def test_nonfinite_loss_aborts_with_context(self):
        trajs = toy_trajectories()
        pm = zero_guidance(K, M_MAX)
        # infinite guidance blows up the very first loss (an infinite
        # penalty weight no longer gets past ModelConfig)
        pm.values[...] = math.inf
        cfg = tiny_config(epochs=1, seed=0)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(trajs, pm, cfg)

    def test_zero_epochs_returns_initial_params(self):
        trajs = toy_trajectories()
        cfg = tiny_config(epochs=0, seed=8)
        result = train(trajs, zero_guidance(K, M_MAX), cfg)
        fresh = init_params(tiny_config(epochs=0, seed=8), k=K, m_max=M_MAX)
        assert result.epoch_losses == []
        for name in fresh.blocks:
            np.testing.assert_array_equal(result.params.blocks[name], fresh.blocks[name])

    def test_training_loss_is_finite_with_drift(self):
        trajs = toy_trajectories()
        cfg = tiny_config(epochs=5, alpha=2.0, seed=1)
        result = train(trajs, build_guidance_matrix(trajs, k=K), cfg)
        assert all(math.isfinite(x) for x in result.epoch_losses)
