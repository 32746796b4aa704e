"""Best-case optimal stopping under model uncertainty on finite event trees.

The library computes, on a finite filtered event tree, the value family

    R(v) = sup over priors P and stopping times tau >= v of E_P[Y(tau) | F_v]

for a pasting-stable dominated prior class given by node-local polytopes of
one-step density ratios, together with the objects attached to it:
approximately optimal and optimal stopping times, a maximizing prior, an
optimality certificate, the universal martingale-minus-drift decomposition of
R, a brute-force enumeration oracle, and the valuation of American knock-in
barrier puts under drift ambiguity.
"""

from .errors import (
    ConfigError,
    FloorMismatchError,
    InvalidFamilyError,
    InvalidParamsError,
    InvalidPriorSetError,
    InvalidRuleError,
    InvalidSelectionError,
    InvalidTreeError,
    MissingStateError,
    NonFiniteValueError,
    RobustSnellError,
    SizeGuardError,
    UnattainedSupremumError,
    UndefinedConditionalError,
)
from .filtration import (
    AdaptedFamily,
    EventTree,
    NodeRecord,
    StoppingRule,
    count_rules,
    first_entry_rule,
    stop_at_time_rule,
    validate_family,
    validate_tree,
)
from .priors import (
    DensityProcess,
    PriorSet,
    bayes_conditional,
    density_process,
    selection_count,
)
from .snell import (
    CertificateReport,
    SnellSolution,
    check_optimality_certificate,
    extract_optimal_prior,
    solve,
    u_alpha,
    u_star,
)
from .decomposition import (
    Decomposition,
    DecompositionDiagnostics,
    PremiseReport,
    flat_off_check,
    node_subspace_basis,
    premise_check,
    universal_decompose,
)
from .oracle import (
    BruteForceResult,
    CrosscheckReport,
    brute_force_value,
    crosscheck,
)
from .pricing import (
    CrrParams,
    PriceResult,
    build_crr_barrier_tree,
    drift_ambiguity_priors,
    knockin_payoff,
    price,
    vanilla_put_payoff,
)
from .random_models import random_crr_params, random_instance

__version__ = "0.1.0"
