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

    def test_recurrent_rows_cover_positions_two_to_n(self):
        params = init_params(tiny_config(arch=ARCH_RECURRENT, seed=4), k=K, m_max=M_MAX)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3)
        rows, _ = forward_teacher(q, (0, 2, 1), params)
        assert rows.shape == (2, K)


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
    grad, grads = params.zero_grads()
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
        assert np.array_equal(got, reference_recurrent_backward(params, cache, drows))


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
        # an infinite penalty weight blows up the very first loss
        cfg = tiny_config(epochs=1, alpha=math.inf, seed=0)
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
