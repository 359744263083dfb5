"""Hybrid QAOA / simplex solver for single-period unit commitment.

Binary on/off decisions ride a simulated QAOA circuit; continuous powers
and slacks ride a from-scratch Nelder-Mead outer loop over a penalized
quadratic reformulation.  Classical branch-and-bound and brute-force
enumeration provide ground truth.
"""

from .baseline import (
    SolveReport,
    random_instance,
    scaling_benchmark,
    solve_approx,
    solve_exact,
)
from .dispatch import (
    DispatchSolution,
    NearOptimalSet,
    economic_dispatch,
    enumerate_all,
    near_optimal_set,
)
from .errors import (
    InfeasibleError,
    NonFiniteObjectiveError,
    SizeGuardError,
    ValidationError,
)
from .hybrid import (
    HybridConfig,
    RunHistory,
    ThetaVector,
    initial_theta,
    objective,
    run_hybrid,
)
from .instance import (
    Commitment,
    UcInstance,
    UnitSpec,
    builtin_ten_unit,
    load_instance,
    load_instance_file,
)
from .metrics import (
    HistoryRecord,
    MetricSnapshot,
    compute_snapshot,
    export_history,
    top_k,
)
from .neldermead import NmResult, nelder_mead
from .qaoa import qaoa_distribution, sample
from .qubo import PenaltyWeights

__version__ = "0.1.0"
