"""Probabilistic safety certificates for discrete systems with latent confounders.

The toolkit covers the full pipeline: exact safety oracles over confounded
MDPs, offline data generation and conversion, front-door causal estimation
of safety Q functions, the Q-margin safety certificate with persistent
feasibility, and a Monte Carlo / exact evaluation harness with a CLI.
"""

from .errors import (
    CertificateUnavailableError,
    ConfigurationError,
    DatasetFormError,
    EncodingError,
    EnumerationSizeError,
    EpisodeEndError,
    FittedQConvergenceError,
    LatentSafeError,
    ModelError,
    PositivityError,
    UnsupportedEnvironmentError,
)
from .mdp import (
    AugmentedState,
    ConfoundedMdpModel,
    MediatorModel,
    OfflineKernel,
    TabularPolicy,
    absorbing_offline_matrix,
    absorbing_online_matrix,
    p_offline,
    p_offline_matrix,
    p_online,
    p_online_matrix,
    uniform_policy,
)
from .envs import (
    DrivingState,
    EnvBundle,
    build_driving_env,
    build_environment,
    build_mediator_toy_env,
    build_mismatch_env,
)
from .oracle import (
    TabularQ,
    TabularQm,
    TabularV,
    brute_force_psi,
    mixed_policy_long_term_safety,
    q_dp,
    qm_dp,
    value_dp,
)
from .data import (
    EpisodeDataset,
    EmpiricalTables,
    OfflineTables,
    convert_dataset,
    empirical_offline_tables,
    generate_offline,
    load_jsonl,
    save_jsonl,
)
from .frontdoor import (
    FittedQm,
    exact_offline_tables,
    export_qm_csv,
    fitted_q_table,
    fitted_qm,
    front_door_online_kernel,
    load_q_table_csv,
)
from .control import (
    Certificate,
    CertificateConfig,
    DeterministicController,
    DtcbfParams,
    certify,
    dtcbf_controller,
    proposed_controller,
    run_control,
)
from .evaluation import (
    CurveStats,
    ExperimentResult,
    emit_report,
    exact_long_term_curve,
    run_experiment,
)

__version__ = "0.1.0"
