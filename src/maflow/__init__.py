"""Gradient-flow generative modeling with a learnable scalar potential.

Samples and log-densities evolve jointly under the gradient field of a
one-hidden-layer softplus potential, integrated with fixed-step RK4 in
either direction.  Training differentiates the recorded integration
exactly, against a maximum-likelihood or variational free-energy objective,
optionally with a symmetrized potential.
"""

from .errors import ConfigError, FormatError, MaflowError, NumericError, StaleTapeError
from .flow import (BackpropResult, FlowState, IntegratorConfig, LossResult, Trajectory,
                   backprop, gaussian_base, gaussian_log_density, integrate, log_prob,
                   nll_loss, replay, sample, variational_loss)
from .potential import (MLPPotential, ParamGrad, PotentialEval, PotentialParams, as_potential,
                        eval_batch, eval_potential, init_params, param_vjp)
from .symmetry import (SymmetrizedPotential, SymmetryGroup, build_potential, group_by_name,
                       ising_group, symmetrized_eval, z2_group)
from .targets import (CRITICAL_COUPLING, GaussianFlowSolution, IsingEnergy, IsingSpec,
                      QuadraticPotential, exact_neg_log_z, ising_energy, ising_energy_grad,
                      ising_oracle_report, ising_spec, spin_sampler)
from .trainer import (AdamState, Checkpoint, TrainConfig, TrainResult, adam_update,
                      load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
