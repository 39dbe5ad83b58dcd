"""Continuous-time q-learning under entropy-regularized exploration.

The package splits into the regulator's coefficients and noise streams
(envsim), parametric families (approx), the mean-variance step-size and
policy-gradient families (baselines), closed-form references (oracle) and
the reproduction experiments (experiments), whose drivers hold each update
rule once: the ergodic regulator's q-learning, SARSA and policy-gradient
lane kernels and the mean-variance driver's episode updates.
"""

from .approx import (GaussianPolicy, GaussianQApprox, lq_q, mv_q,
                     policy_entropy, policy_log_density)
from .envsim import LqCoefficients, RngStream
from .errors import ImprovementUndefined, InfeasibleProblem
from .oracle import (LqErgodicSolution, ergodic_identity_residual, hamiltonian,
                     lq_ergodic_fixed_point, lq_policy_value,
                     policy_improvement_map, q_from_value,
                     qdt_expansion_check)

__version__ = "0.1.0"
