"""Random-key metaheuristic ensemble.

Searchers explore the continuous cube [0, 1)^n and a problem-specific
decoder maps each point to a candidate solution and its (penalized)
cost.  Four searchers (a biased random-key genetic algorithm, simulated
annealing, iterated local search, and variable neighborhood search)
share one decoder-call budget; problem bindings for box-constrained
MIPs, cardinality-constrained portfolio selection, and the
time-dependent TSP come with independent feasibility checkers and
small-instance brute-force oracles.
"""

from .budget import Decoder, EvaluatedSolution, Evaluator, RunBudget
from .ensemble import RunReport, run_ensemble
from .errors import (
    DecoderError,
    InstanceFormatError,
    InstanceWarning,
    OracleGuardError,
)
from .keys import (
    KEY_MAX,
    BlendConfig,
    ShakeConfig,
    blend,
    clip_keys,
    key_distance,
    new_random_vector,
    shake,
)
from .localsearch import rvnd
from .metrics import (
    RpdSummary,
    TttCurve,
    profile_fractions,
    quality_ratios,
    relative_percent_deviation,
    summarize_rpd,
    ttt_curve,
    ttt_target,
)
from .mip import (
    GenericMipInstance,
    MipAssignment,
    MipDecoder,
    PenaltyModel,
    brute_force_mip,
    check_mip,
    decode_mip,
    map_keys_to_assignment,
)
# No run uses the pool; the benchmark's isolated pool row times it.
from .pool import ElitePool, InsertOutcome
from .portfolio import (
    PortfolioDecoder,
    PortfolioInstance,
    PortfolioSolution,
    brute_force_portfolio,
    check_portfolio,
    decode_portfolio,
)
from .searchers import BrkgaParams, IlsParams, SaParams, SearcherParams, VnsParams
from .tdtsp import (
    TdTspDecoder,
    TdTspInstance,
    TdTspSolution,
    brute_force_tdtsp,
    check_tdtsp,
    decode_tdtsp,
    generate_tdtsp_instance,
    travel_time_lower_bound,
)

__all__ = [
    "BlendConfig",
    "BrkgaParams",
    "Decoder",
    "DecoderError",
    "ElitePool",
    "EvaluatedSolution",
    "Evaluator",
    "GenericMipInstance",
    "IlsParams",
    "InsertOutcome",
    "InstanceFormatError",
    "InstanceWarning",
    "KEY_MAX",
    "MipAssignment",
    "MipDecoder",
    "OracleGuardError",
    "PenaltyModel",
    "PortfolioDecoder",
    "PortfolioInstance",
    "PortfolioSolution",
    "RpdSummary",
    "RunBudget",
    "RunReport",
    "SaParams",
    "SearcherParams",
    "ShakeConfig",
    "TdTspDecoder",
    "TdTspInstance",
    "TdTspSolution",
    "TttCurve",
    "VnsParams",
    "blend",
    "brute_force_mip",
    "brute_force_portfolio",
    "brute_force_tdtsp",
    "check_mip",
    "check_portfolio",
    "check_tdtsp",
    "clip_keys",
    "decode_mip",
    "decode_portfolio",
    "decode_tdtsp",
    "generate_tdtsp_instance",
    "key_distance",
    "map_keys_to_assignment",
    "new_random_vector",
    "profile_fractions",
    "quality_ratios",
    "relative_percent_deviation",
    "run_ensemble",
    "rvnd",
    "shake",
    "summarize_rpd",
    "travel_time_lower_bound",
    "ttt_curve",
    "ttt_target",
]
