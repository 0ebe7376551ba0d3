import numpy as np
import pytest
from gradcheck import FD_STEP, REL_FLOOR, grad_check

from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig
from artrip.data import Trajectory
from artrip.guidance import build_guidance_matrix
from artrip.model.params import init_params
from artrip.model.train import loss_and_grads

TRAJ = Trajectory(pois=(0, 3, 5, 1), times=(0, 3600, 7200, 10800))
CORPUS = [
    TRAJ,
    Trajectory(pois=(2, 4, 1), times=(0, 3600, 7200)),
    Trajectory(pois=(0, 2, 3, 4), times=(0, 3600, 7200, 10800)),
]
K = 6
M_MAX = 4  # the longest CORPUS trajectory


def setup_check(arch, seed=0):
    pm = build_guidance_matrix(CORPUS, k=K)
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=seed)
    params = init_params(cfg, k=K, m_max=pm.m_max)
    return params, pm


@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_analytic_gradients_match_numeric(arch, alpha):
    params, pm = setup_check(arch)
    report = grad_check(TRAJ, params, pm, alpha=alpha)
    assert report.passed, f"worst block {report.worst_block}: {report.max_rel_error}"
    assert report.max_rel_error <= 1e-4


@pytest.mark.parametrize("n", range(2, M_MAX + 3))
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_recurrent_gradients_with_repeated_inputs(n, alpha):
    traj = repeated_inputs_route(n)
    params, pm = setup_check(ARCH_RECURRENT, seed=n)
    if n > M_MAX:
        with pytest.raises(ValueError, match=f"n={n} exceeds the horizon m_max={M_MAX}"):
            grad_check(traj, params, pm, alpha=alpha)
        return
    report = grad_check(traj, params, pm, alpha=alpha)
    assert report.passed, f"worst block {report.worst_block}: {report.max_rel_error}"


def test_report_covers_every_block():
    params, pm = setup_check(ARCH_RECURRENT)
    report = grad_check(TRAJ, params, pm, alpha=1.0)
    assert set(report.per_block) == set(params.blocks)
    assert report.worst_block in report.per_block


def test_corruption_is_detected():
    params, pm = setup_check(ARCH_ONE_SHOT)
    report = grad_check(TRAJ, params, pm, alpha=0.0, corrupt_block="head")
    assert not report.passed
    assert report.per_block["head"] > 1e-4


def test_corrupting_unknown_block_raises():
    params, pm = setup_check(ARCH_ONE_SHOT)
    with pytest.raises(KeyError, match="no_such_block"):
        grad_check(TRAJ, params, pm, alpha=0.0, corrupt_block="no_such_block")


def test_check_leaves_parameters_untouched():
    params, pm = setup_check(ARCH_ONE_SHOT, seed=2)
    before = {name: block.copy() for name, block in params.blocks.items()}
    grad_check(TRAJ, params, pm, alpha=1.0)
    for name, block in params.blocks.items():
        assert (block == before[name]).all(), name


def repeated_inputs_route(n):
    """A route whose inputs pois[:-1] revisit POIs 0 and 3; 0 is also the start."""
    pois = (0, 3, 0, 3, 3, 0)[: n - 1] + (1,)
    return Trajectory(pois=pois, times=tuple(3600 * i for i in range(n)))


def reference_report(traj, params, pm, alpha, corrupt_block=None):
    """Max error, worst block and per-block errors from a loop that takes every loss with its gradient."""
    _, analytic = loss_and_grads(traj, params, pm, alpha, params.zero_grads())
    if corrupt_block is not None:
        params.views(analytic)[corrupt_block] += 0.5
    flat = params.flat
    rel = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up, _ = loss_and_grads(traj, params, pm, alpha, params.zero_grads())
        flat[i] = orig - FD_STEP
        down, _ = loss_and_grads(traj, params, pm, alpha, params.zero_grads())
        flat[i] = orig
        numeric = (up - down) / (2.0 * FD_STEP)
        rel[i] = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), REL_FLOOR)
    per_block = {name: float(block.max()) for name, block in params.views(rel).items()}
    worst = max(reversed(per_block), key=per_block.__getitem__)
    return per_block[worst], worst, per_block


# (arch, seed, trajectory, alpha, corrupt_block): every check made above
REFERENCE_CASES = [
    *((arch, 0, TRAJ, alpha, None) for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT) for alpha in (0.0, 1.0)),
    *((ARCH_RECURRENT, n, repeated_inputs_route(n), alpha, None) for n in range(2, M_MAX + 1) for alpha in (0.0, 1.0)),
    (ARCH_ONE_SHOT, 0, TRAJ, 0.0, "head"),
    (ARCH_ONE_SHOT, 2, TRAJ, 1.0, None),
]


@pytest.mark.parametrize(
    "arch, seed, traj, alpha, corrupt_block",
    REFERENCE_CASES,
    ids=[f"{a}-seed{s}-n{len(t)}-alpha{al}-{c}" for a, s, t, al, c in REFERENCE_CASES],
)
def test_report_equals_that_of_differencing_losses_taken_with_their_gradients(
    arch, seed, traj, alpha, corrupt_block
):
    params, pm = setup_check(arch, seed=seed)
    report = grad_check(traj, params, pm, alpha=alpha, corrupt_block=corrupt_block)
    want = reference_report(traj, params, pm, alpha, corrupt_block)
    assert (report.max_rel_error, report.worst_block, report.per_block) == want
