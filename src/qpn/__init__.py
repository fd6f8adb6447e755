"""qpn: verification toolkit for quantum-annotated safe Petri nets."""

from .algebra import (
    MAX_TOTAL_DIM,
    TOL_PSD,
    Channel,
    FactorPermutation,
    apply,
    effect,
    is_cptni,
    partial_trace,
)
from .annotation import (
    GlobalValuation,
    LocalAnnotation,
    check_local_obliviousness,
    validate_signatures,
)
from .checker import (
    DropReport,
    brute_force_global_drop,
    check_local_drop,
    clique_drop,
    cluster_factorization_check,
    drop_effect,
    is_local_qon,
    is_qpn,
    single_extension_drop,
)
from .compose import (
    AnnotatedNet,
    JoinSpec,
    check_join_preservation,
    drop_preserving_join,
    parallel,
    single_join,
    validate_drop_preserving,
)
from .errors import QpnError
from .netfile import load_net, save_net
from .nets import (
    MarkingInterval,
    Net,
    OccurrenceNet,
    configuration_of_marking,
    enabled,
    fire,
    interval,
    is_occurrence_net,
    marking_of_configuration,
    race_free,
    reachable_markings,
    to_dot,
    verify_safety,
)
from .outcome import CheckOutcome
from .semantics import RunState, run_probability, sample_execution, sub_probability_check
from .unfolding import (
    BranchingProcess,
    UnfoldBudget,
    cluster_bijection_check,
    transfer_annotation,
    unfold,
    verify_branching_process,
)

__version__ = "0.1.0"
