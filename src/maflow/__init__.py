"""Gradient-flow generative modeling with a learnable scalar potential.

Samples and log-densities evolve jointly under the gradient field of a
one-hidden-layer softplus potential, integrated with fixed-step RK4 in
either direction.  Training differentiates the recorded integration
exactly, against a maximum-likelihood or variational free-energy objective,
optionally with a symmetrized potential.
"""

from .difftape import BackpropResult, Trajectory, backprop, replay
from .errors import ConfigError, FormatError, MaflowError, NumericError, StaleTapeError
from .flow import (FlowState, IntegratorConfig, as_potential, gaussian_base,
                   gaussian_log_density, integrate, log_prob, rk4_step, sample)
from .potential import (MLPPotential, PotentialEval, PotentialParams, eval_batch,
                        eval_potential, init_params, param_vjp)
from .symmetry import (GroupElement, SymmetrizedPotential, SymmetryGroup, apply,
                       build_potential, compose, d4_group, group_by_name, identity,
                       inverse, ising_group, symmetrized_eval, trivial_group, z2_group)
from .targets import (CRITICAL_COUPLING, GaussianFlowSolution, IsingEnergy, IsingSpec,
                      LossResult, QuadraticPotential, exact_neg_log_z,
                      gaussian_flow_oracle, ising_energy, ising_energy_grad,
                      ising_oracle_report, ising_spec, nll_loss, spin_sampler,
                      variational_loss)
from .trainer import (AdamState, Checkpoint, TrainConfig, TrainResult, adam_update,
                      load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
