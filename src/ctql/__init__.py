"""Continuous-time q-learning under entropy-regularized exploration.

The package splits into the regulator's coefficients and noise streams
(envsim), closed-form references and the exceptions they raise on ill-posed
inputs (oracle), and the reproduction experiments (experiments), whose
drivers hold each update rule once with the families it contracts: the
ergodic regulator's lane kernel, whose q-learning, SARSA and
policy-gradient rules also hold its value and q, and the mean-variance
driver's episode updates over its value, q and step-size Q families, whose
q over gamma is also the policy-gradient log-density.
"""

from .envsim import LqCoefficients, RngStream
from .oracle import (ImprovementUndefined, InfeasibleProblem,
                     LqErgodicSolution, ergodic_identity_residual, hamiltonian,
                     lq_ergodic_fixed_point, lq_policy_value,
                     policy_improvement_map, q_from_value,
                     qdt_expansion_check)

__version__ = "0.1.0"
