"""Shared fixtures and the acceptance-criteria result reporter."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a 2-core machine the default
# pool doubled the suite's CPU time and did not shorten its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from spafl import nn

ACCEPTANCE_RESULTS: list[tuple[str, bool | None]] = []


def record_criterion(name: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((name, passed))


def record_note(text: str) -> None:
    """A line with no verdict, printed where it was recorded among the
    criteria (under the criterion it explains)."""
    ACCEPTANCE_RESULTS.append((text, None))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS:
        label = "    " if passed is None else "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tiny_conv_net(seed: int = 0) -> tuple[nn.Network, nn.NetworkParams]:
    """Small net exercising every layer kind: conv, relu, maxpool, dense."""
    net = nn.Network(
        (1, 6, 6),
        [
            nn.conv2d(3, (3, 3)),
            nn.relu(),
            nn.maxpool2d((2, 2)),
            nn.dense(6),
            nn.relu(),
            nn.dense(3),
        ],
    )
    params = nn.init_params(net, np.random.default_rng(seed))
    return net, params


def strided_conv_net(seed: int = 0) -> tuple[nn.Network, nn.NetworkParams]:
    """Two stacked convs, so a conv input gradient (col2im) is backpropagated:
    the second conv has a 3x2 kernel at stride 2, and the pool windows
    overlap (stride 1)."""
    net = nn.Network(
        (2, 9, 8),
        [
            nn.conv2d(3, (3, 3)),
            nn.relu(),
            nn.conv2d(4, (3, 2), stride=2),
            nn.relu(),
            nn.maxpool2d((2, 2), stride=1),
            nn.dense(3),
        ],
    )
    params = nn.init_params(net, np.random.default_rng(seed))
    return net, params


def tiny_dense_net(n_in: int = 4, hidden: int = 5, n_out: int = 3, seed: int = 0):
    net = nn.Network((n_in,), [nn.dense(hidden), nn.relu(), nn.dense(n_out)])
    params = nn.init_params(net, np.random.default_rng(seed))
    return net, params


def all_ones_masks(net: nn.Network) -> list[np.ndarray]:
    return [np.ones(n) for n in net.threshold_sizes]
