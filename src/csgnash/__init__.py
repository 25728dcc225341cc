"""Equilibrium model checker for two-coalition concurrent stochastic games.

Builds games from a guarded-command modelling language or explicit state
listings, evaluates equilibrium and coalition properties, synthesises the
witnessing strategy profiles, and verifies them as ε-Nash equilibria.
"""

from .bimatrix import (BimatrixGame, MixedProfile, eliminate_dominated,
                       enumerate_equilibria, is_equilibrium, select_swne,
                       solve_swne)
from .errors import (AssumptionViolated, CsgError, InfiniteValue,
                     LanguageError, ModelError, NotConverged, PropertyError,
                     SolverError, UnsupportedOperator)
from .explicit import load_explicit
from .lang import build_csg, load_model, parse_model, resolve_constants
from .model import (AssumptionReport, CoalitionGame, Csg, IndexedMdp,
                    MemoryStrategy, check_assumption, coalition_game,
                    enumerate_mecs, induce_mdp, joint_mdp)
from .mdp import expected_reward, prob1_min_set, reach_prob, step_prob
from .nash import (Evaluation, PairResult, evaluate, solve_bounded_pair,
                   solve_unbounded_pair)
from .properties import (NashNode, Objective, ZeroSumNode, classify_horizon,
                         parse_property, satisfying_states, to_text)
from .synthesis import (SynthesisedProfile, TableStrategy, VerificationReport,
                        synthesise_profile, verify_epsilon_ne)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
