import warnings

import pytest

from artrip.data import Trajectory
from artrip.guidance import build_guidance_matrix
from artrip.model import (
    ARCH_ONE_SHOT,
    ARCH_RECURRENT,
    ModelConfig,
    grad_check,
    init_params,
)

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
    # the inputs pois[:-1] revisit POIs 0 and 3, and 0 is also the start
    pois = (0, 3, 0, 3, 3, 0)[: n - 1] + (1,)
    traj = Trajectory(pois=pois, times=tuple(3600 * i for i in range(n)))
    params, pm = setup_check(ARCH_RECURRENT, seed=n)
    with warnings.catch_warnings():
        # positions past m_max are unguided, with a warning
        warnings.filterwarnings("ignore", message="position .* exceeds trained horizon")
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
