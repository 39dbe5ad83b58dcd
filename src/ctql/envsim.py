"""The regulator's coefficients and counter-based noise streams.

`LqCoefficients` is the one model of the ergodic regulator: the drivers
step it with Euler-Maruyama on a uniform grid, actions sampled at the left
endpoint and held over the step, and the oracle forms its Hamiltonian from
the same fields.  All randomness flows through counter-based streams keyed
by (master_seed, replication, ...) so any run can be reproduced bit-for-bit
from its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A lane is marked diverged once its state passes this bound.
STATE_GUARD = 1.0e8
# The Gaussian log-density's constant log(2 pi), which both drivers' q
# families read.
LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RngStream:
    """Counter-based noise stream keyed by (master_seed, replication, episode).

    generator() always starts from the beginning of the keyed stream, so a
    fixed key replays the same noise no matter how often it is opened.
    """

    master_seed: int
    stream_id: tuple = (0, 0)

    def __post_init__(self):
        if self.master_seed < 0 or any(int(s) < 0 for s in self.stream_id):
            raise ValueError("seeds and stream ids must be nonnegative integers")

    def generator(self) -> np.random.Generator:
        key = (int(self.master_seed),) + tuple(int(s) for s in self.stream_id)
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class LqCoefficients:
    """Scalar linear dynamics dX = (A x + B a) dt + (C x + D a) dW with
    quadratic running reward -(M/2 x^2 + R x a + N/2 a^2 + P x + Q a).

    Defaults are the benchmark configuration used across the experiments.
    """

    A: float = -1.0
    B: float = 0.0
    C: float = 0.0
    D: float = 1.0
    M: float = 2.0
    N: float = 2.0
    R: float = 1.0
    P: float = 1.0
    Q: float = 2.0

    def reward(self, x, a):
        return -(self.M / 2 * x ** 2 + self.R * x * a + self.N / 2 * a ** 2
                 + self.P * x + self.Q * a)
