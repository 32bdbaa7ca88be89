"""Diversifying peer behavior models for interactive planning.

Pipeline: complete policy trees describe candidate peer behaviors; their
behavior matrix factors exactly into pivot features; features anchor the
sampling of new trees; diversity measures drive greedy top-K accumulation;
the resulting candidate set is flattened into an exact single-agent planning
problem for the subject agent; repeated interaction rounds measure how the
subject fares against true peer behavior inside or outside the set.
"""

from .diversity import (
    DiversityReport,
    diff_frames,
    diff_sequences,
    diversity_report,
    mdf,
    mdp,
    report_to_csv,
)
from .domains import (
    BUILTIN_DOMAINS,
    DomainValidationError,
    JointTransition,
    PosgDomain,
    SingleAgentModel,
    SparseRows,
    builtin_domain,
    builtin_tiger,
    builtin_uav,
    load_domain,
    project_level0,
    serialize_domain,
    validate_domain,
    validate_model,
    with_horizon,
)
from .features import (
    BehaviorMatrix,
    PivotResult,
    build_matrix,
    extract_features,
    matrix_to_csv,
    pivot_decompose,
)
from .flattening import FlatIdid, FlatModel, flatten, solve_idid
from .generation import convert_to_dbn, generate_known_models, sample_tree
from .runs import (
    ALGORITHMS,
    RunManifest,
    TOOL_VERSION,
    load_manifest,
    run_experiment_grid,
    run_from_manifest,
    write_manifest,
)
from .selection import (
    CandidateModelSet,
    SelectionConfig,
    load_candidate_set,
    make_candidate_set,
    save_candidate_set,
    select_topk,
)
from .simulate import (
    EpisodeTrace,
    ExperimentStats,
    StepRecord,
    episodes_to_csv,
    run_episode,
    run_experiment,
)
from .solver import (
    EnumerationCapError,
    SolvedPolicy,
    brute_force_solve,
    evaluate_policy,
    solve_exact,
)
from .trees import (
    BehaviorSequence,
    PolicyTree,
    TreeShapeError,
    all_trees,
    canonical_encode,
    canonical_parse,
    constant_tree,
    count_tree_nodes,
    count_trees,
    frame,
    prefixes,
    sequence_list,
    validate_tree,
)

__version__ = TOOL_VERSION
