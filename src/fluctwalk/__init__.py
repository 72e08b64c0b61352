"""Fluctuation theory of random walks, with exact certificates.

Local times at the running maximum, ladder processes, norming constants,
excursion-reversal path transforms, walks conditioned to stay positive, and
meanders; identities are certified by an exact enumeration oracle and the
scaling behavior is checked by Monte Carlo experiments against closed-form
limit targets.
"""

from .increments import IncrementLaw, WalkPath, derive_seed, sample_walk
from .fluctuation import last_max_index, local_time_strict, local_time_verbatim
from .transforms import future_min_local_time, tanaka_transform
from .scaling import FristedtReport, fristedt_residual, norming_constant, wiener_hopf_factor
from .conditioning import (SurvivalEstimate, conditioned_states, harmonic_limits,
                           meander_sample, meander_weights, renewal_function,
                           survival_probability)
from .oracle import ExactDistribution, distribution_equality, exact_functional_distribution
from .stats import Sample, ks_statistic
from .limit_laws import h_bm, half_stable_tau_tail, kappa_bm, levy_half_cdf, rayleigh_cdf
from .experiments import (ExperimentConfig, ExperimentReport, run_harmonic, run_lemma1,
                          run_localtime, run_meander, run_theorem1)

__version__ = "0.1.0"
