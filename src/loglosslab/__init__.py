"""Finite-alphabet lossy compression under logarithmic loss.

Exact small-instance solvers, a distortion-targeted alternating-minimization
solver for the rate-distortion function, the log-loss surrogate of one-shot
coding, successive-refinement constructions, and a CLI front end.  All
rates, entropies, and log losses are in nats.
"""

from .errors import (
    ConvergenceError,
    DegenerateInstanceError,
    InfeasibleError,
    InstanceTooLargeError,
    LoglossLabError,
    MappingError,
    ValidationError,
    VerificationError,
)
from .probability import (
    Channel,
    Joint,
    Pmf,
    conditional_entropy,
    entropy,
    information_density,
    joint_from_source_and_channel,
    kl_divergence,
    log_loss,
    log_loss_seq,
    mutual_information,
    posterior,
    renormalize,
    varentropy,
)
from .ratedistortion import (
    RdPoint,
    SourceProblem,
    distortion_bounds,
    hamming_distortion,
    logloss_rd,
    rd_at_distortion,
    rd_curve,
    tilted_information,
    verify_csiszar_identity,
    verify_lemma1,
)
from .oneshot import (
    ExcessScheme,
    OneShotCode,
    PartitionScheme,
    expected_distortion,
    floor_exp,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    solve_avg,
    solve_avg_oracle,
    solve_codebook,
    solve_excess,
)
from .equivalence import (
    CorrespondingProblem,
    LogLossCode,
    build_corresponding,
    expected_log_loss,
    identity_bound,
    identity_sweep,
    map_code,
    suboptimality_gap,
    unmap_code,
    verify_optimum_coincidence,
    verify_theorem1,
)
from .refinement import (
    ERASURE,
    SrConstruction,
    TimeshareReport,
    chain_step_channel,
    construct_sr,
    construct_sr_chain,
    timeshare_simulate,
    timeshare_two_decoders,
    verify_sr,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LoglossLabError", "ValidationError", "InfeasibleError",
    "DegenerateInstanceError", "ConvergenceError", "InstanceTooLargeError",
    "MappingError", "VerificationError",
    # probability
    "Pmf", "Channel", "Joint", "renormalize", "entropy", "varentropy",
    "kl_divergence", "conditional_entropy", "mutual_information",
    "information_density", "posterior", "joint_from_source_and_channel",
    "log_loss", "log_loss_seq",
    # rate-distortion
    "SourceProblem", "RdPoint", "hamming_distortion", "distortion_bounds",
    "rd_at_distortion", "rd_curve", "tilted_information",
    "verify_csiszar_identity", "logloss_rd", "verify_lemma1",
    # one-shot
    "OneShotCode", "PartitionScheme", "ExcessScheme", "expected_distortion",
    "solve_avg", "solve_avg_oracle", "solve_excess", "solve_codebook",
    "logloss_avg_optimum", "logloss_excess_optimum", "logloss_codebook",
    "logloss_excess_oracle", "floor_exp",
    # equivalence
    "CorrespondingProblem", "LogLossCode", "build_corresponding", "map_code",
    "unmap_code", "expected_log_loss", "verify_theorem1", "suboptimality_gap",
    "identity_sweep", "identity_bound", "verify_optimum_coincidence",
    # successive refinement
    "ERASURE", "SrConstruction", "TimeshareReport", "construct_sr",
    "construct_sr_chain", "chain_step_channel", "verify_sr",
    "timeshare_simulate", "timeshare_two_decoders",
]
