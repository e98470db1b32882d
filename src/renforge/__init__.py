"""renforge: deterministic threshold-neuron simulation with self-organising
growth, concept forests, symbolic event clustering, and resonance search."""

from .concept_forest import (ConceptForest, ConceptNode, DynamicLink,
                             SearchPath, SplitEvent, tokenize)
from .core_net import FIRING_TOLERANCE, FiringRecord, Network, Neuron, Synapse
from .errors import (ConfigurationError, DuplicateEdgeError,
                     InvalidCombinationError, InvalidParameterError,
                     InvalidSpecError, NotFoundError, RenforgeError)
from .feedback import (DEFAULT_EPS_BALANCE, average_excess, is_balanced,
                       repulsion_at, resistance_profile)
from .growth import (ConvergenceReport, GrowthConfig, GrowthEvent,
                     TurbulenceState, accumulate_turbulence, close_paths,
                     growth_tick, run_until_balanced, spawn_and_join)
from .refined import (RefinedSpec, build_refined, effective_weight,
                      expand_weighted, min_firing_set_size)
from .resonance import (ResonanceReport, combine_searches, find_terminals,
                        network_fingerprint, report_csv_rows, report_to_json,
                        resonate)
from .symbolic_cluster import ClusterNet, EventReport, GlobalConcept, HiddenNode

__version__ = "0.1.0"
