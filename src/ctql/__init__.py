"""Continuous-time q-learning under entropy-regularized exploration.

The package splits into the regulator's coefficients and noise streams
(envsim), the mean-variance value and q families, whose q over gamma is also
the policy-gradient log-density (approx), the mean-variance step-size Q
family (baselines), closed-form references
(oracle) and the reproduction experiments (experiments), whose drivers hold
each update rule once: the ergodic regulator's lane kernel, whose
q-learning, SARSA and policy-gradient rules also hold its value and q, and
the mean-variance driver's episode updates.
"""

from .envsim import LqCoefficients, RngStream
from .errors import ImprovementUndefined, InfeasibleProblem
from .oracle import (LqErgodicSolution, ergodic_identity_residual, hamiltonian,
                     lq_ergodic_fixed_point, lq_policy_value,
                     policy_improvement_map, q_from_value,
                     qdt_expansion_check)

__version__ = "0.1.0"
