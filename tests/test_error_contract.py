"""Arguments of the wrong kind raise a ValidationError that names them.

A real argument takes a finite real number that is not a bool (an int too
large for a float is not finite); an integer argument takes an integer that
is not a bool; a sequence argument takes any iterable but a string; an
object argument takes an instance of its class.  Anything else raises
ValidationError, never a raw TypeError, AttributeError, OverflowError or
IndexError, with a message that starts with the function that checked the
value and the argument's name.
Two arguments that must agree in size (a channel and its input pmf, a
code and its problem, a solved point and its problem) raise a
ValidationError naming the function, both arguments and both sizes; an
index into another argument is an integer argument with that argument's
bounds.  Every public function that takes two or more record arguments
has a row in ``MISMATCHES``.
Two values that must come in order (coarse before fine) raise a
ValidationError naming the function, both arguments and both values when
the later one exceeds the earlier by more than 1e-12, the slack of every
feasible interval too.  A sequence that must hold an entry raises one naming
the function and the sequence when it is empty.  Each such check has a row in
``ORDER_AND_EMPTINESS``.
Where a function hands an argument on unchecked, the check that names it is
the callee's (for example ``construct_sr``'s ``tol`` is checked by
``rd_at_distortion``).  Message counts, seeds, sample counts, iteration
budgets and verifier tolerances have their own parametrized tests.  Every
argument of a public function annotated with a record class has a row in
``OBJECT_ARGUMENTS``.
"""

import collections
import dataclasses
import inspect
import math
import typing

import numpy as np
import pytest

import loglosslab
from loglosslab import errors
from loglosslab import (
    Channel,
    CorrespondingProblem,
    Joint,
    LogLossCode,
    OneShotCode,
    Pmf,
    RdPoint,
    SourceProblem,
    SrConstruction,
    ValidationError,
    build_corresponding,
    chain_step_channel,
    conditional_entropy,
    construct_sr,
    construct_sr_chain,
    distortion_bounds,
    entropy,
    excess_witness,
    expected_distortion,
    expected_log_loss,
    floor_exp,
    hamming_distortion,
    identity_bound,
    identity_sweep,
    information_density,
    joint_from_source_and_channel,
    kl_divergence,
    log_loss,
    log_loss_seq,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    logloss_rd,
    map_code,
    mutual_information,
    posterior,
    rd_at_distortion,
    rd_curve,
    renormalize,
    solve_avg,
    solve_avg_oracle,
    solve_codebook,
    solve_excess,
    suboptimality_gap,
    tilted_information,
    timeshare_simulate,
    timeshare_two_decoders,
    unmap_code,
    varentropy,
    verify_csiszar_identity,
    verify_lemma1,
    verify_optimum_coincidence,
    verify_sr,
    verify_theorem1,
)

SKEW3 = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
PX = SKEW3.px
JOINT = Joint([[0.3, 0.2], [0.1, 0.4]])
CHANNEL = Channel.identity(3)
POINT = rd_at_distortion(SKEW3, 0.2)
Q_ROWS = [POINT.reverse.row(j) for j in range(POINT.reverse.n_in)]
CP = build_corresponding(SKEW3, 2)
CODE = CP.optimal_code
LCODE = map_code(CP, CODE)
SR = construct_sr(SKEW3, 0.9, 0.15)
CHAIN = construct_sr_chain(SKEW3, [0.9, 0.8], 0.15)
# Problems that POINT, solved on SKEW3, does not fit.
SKEW2 = SourceProblem(px=Pmf([0.6, 0.4]), distortion=hamming_distortion(2))
ONE_SYMBOL = SourceProblem(px=Pmf([1.0]), distortion=[[0.0, 1.0, 2.0]])
TWO_COLUMNS = SourceProblem(px=PX, distortion=hamming_distortion(3, 2))
PMF2 = Pmf([0.5, 0.5])

# id: (call taking the value, "checker: argument" that opens the message,
# a value the call accepts)
REAL_ARGUMENTS = {
    "rd_at_distortion-d": (lambda v: rd_at_distortion(SKEW3, v), "rd_at_distortion: d", 0.2),
    "rd_at_distortion-tol": (lambda v: rd_at_distortion(SKEW3, 0.2, tol=v),
                             "rd_at_distortion: tol", 1e-8),
    "rd_curve-grid": (lambda v: rd_curve(SKEW3, [0.2, v]), "rd_at_distortion: d", 0.3),
    "logloss_rd-d": (lambda v: logloss_rd(SKEW3.px, v), "logloss_rd: d", 0.2),
    "build_corresponding-tol": (lambda v: build_corresponding(SKEW3, 2, tol=v),
                                "rd_at_distortion: tol", 1e-10),
    "solve_excess-d": (lambda v: solve_excess(SKEW3, 2, v), "solve_excess: d", 0.5),
    "excess_witness-d": (lambda v: excess_witness(SKEW3, 2, v), "excess_witness: d", 0.5),
    "solve_codebook-d": (lambda v: solve_codebook(SKEW3, v, 0.1), "solve_codebook: d", 0.5),
    "solve_codebook-eps": (lambda v: solve_codebook(SKEW3, 0.5, v), "solve_codebook: eps", 0.1),
    "floor_exp-d": (floor_exp, "floor_exp: d", 0.5),
    "logloss_excess_optimum-d": (lambda v: logloss_excess_optimum(SKEW3.px, 2, v),
                                 "floor_exp: d", 0.5),
    "logloss_excess_oracle-d": (lambda v: logloss_excess_oracle(SKEW3.px, 2, v),
                                "floor_exp: d", 0.5),
    "logloss_codebook-d": (lambda v: logloss_codebook(SKEW3.px, v, 0.1), "floor_exp: d", 0.5),
    "logloss_codebook-eps": (lambda v: logloss_codebook(SKEW3.px, 0.5, v),
                             "logloss_codebook: eps", 0.1),
    "construct_sr-d1": (lambda v: construct_sr(SKEW3, v, 0.15), "construct_sr: d1", 0.9),
    "construct_sr-d2": (lambda v: construct_sr(SKEW3, 0.9, v), "construct_sr: d2", 0.15),
    "construct_sr-tol": (lambda v: construct_sr(SKEW3, 0.9, 0.15, tol=v),
                         "rd_at_distortion: tol", 1e-8),
    "construct_sr_chain-ds": (lambda v: construct_sr_chain(SKEW3, [0.9, v], 0.15),
                              "construct_sr_chain: ds[1]", 0.8),
    "construct_sr_chain-d_final": (lambda v: construct_sr_chain(SKEW3, [0.9], v),
                                   "construct_sr_chain: d_final", 0.15),
    "construct_sr_chain-tol": (lambda v: construct_sr_chain(SKEW3, [0.9], 0.15, tol=v),
                               "rd_at_distortion: tol", 1e-8),
    "timeshare_simulate-d": (lambda v: timeshare_simulate(SKEW3.px, v, 10, 0),
                             "timeshare_simulate: d", 0.5),
    "timeshare_two_decoders-d1": (lambda v: timeshare_two_decoders(SKEW3.px, v, 0.3, 10, 0),
                                  "timeshare_two_decoders: d1", 0.9),
    "timeshare_two_decoders-d2": (lambda v: timeshare_two_decoders(SKEW3.px, 0.9, v, 10, 0),
                                  "timeshare_two_decoders: d2", 0.3),
}

INTEGER_ARGUMENTS = {
    "Pmf.uniform-n": (Pmf.uniform, "Pmf.uniform: n", 3),
    "Pmf.point_mass-n": (lambda v: Pmf.point_mass(v, 0), "Pmf.point_mass: n", 3),
    "Pmf.point_mass-x": (lambda v: Pmf.point_mass(3, v), "Pmf.point_mass: x", 2),
    "log_loss-x": (lambda v: log_loss(v, SKEW3.px), "log_loss: x", 2),
    "information_density-x": (lambda v: information_density(JOINT, v, 0),
                              "information_density: x", 1),
    "information_density-y": (lambda v: information_density(JOINT, 0, v),
                              "information_density: y", 1),
    "hamming_distortion-r": (hamming_distortion, "hamming_distortion: r", 3),
    "OneShotCode-encoder": (lambda v: OneShotCode(2, (0, v, 1), (0, 1)),
                            "OneShotCode: encoder[1]", 1),
    "OneShotCode-decoder": (lambda v: OneShotCode(2, (0, 1, 1), (0, v)),
                            "OneShotCode: decoder[1]", 2),
    "LogLossCode-encoder": (lambda v: LogLossCode(2, (0, v, 1), (SKEW3.px, SKEW3.px)),
                            "LogLossCode: encoder[1]", 0),
    "Channel.identity-n": (Channel.identity, "Channel.identity: n", 3),
    "Channel.constant-n_in": (lambda v: Channel.constant(SKEW3.px, v),
                              "Channel.constant: n_in", 2),
}

SEQUENCE_ARGUMENTS = {
    "rd_curve-grid": (lambda v: rd_curve(SKEW3, v), "rd_curve: grid", [0.2, 0.3]),
    "construct_sr_chain-ds": (lambda v: construct_sr_chain(SKEW3, v, 0.15),
                              "construct_sr_chain: ds", (0.9, 0.8)),
    "log_loss_seq-xs": (lambda v: log_loss_seq(v, [SKEW3.px]), "log_loss_seq: xs", [0]),
    "log_loss_seq-qs": (lambda v: log_loss_seq([0], v), "log_loss_seq: qs", [SKEW3.px]),
    "OneShotCode-encoder": (lambda v: OneShotCode(2, v, (0, 1)), "OneShotCode: encoder",
                            (0, 1, 1)),
    "OneShotCode-decoder": (lambda v: OneShotCode(2, (0, 1, 1), v), "OneShotCode: decoder",
                            [0, 1]),
    "LogLossCode-encoder": (lambda v: LogLossCode(2, v, (SKEW3.px, SKEW3.px)),
                            "LogLossCode: encoder", [0, 1, 1]),
    "LogLossCode-decoder_rows": (lambda v: LogLossCode(2, (0, 1, 1), v),
                                 "LogLossCode: decoder_rows", [SKEW3.px, SKEW3.px]),
    "verify_lemma1-q_rows": (lambda v: verify_lemma1(PX, v, POINT.forward),
                             "verify_lemma1: q_rows", Q_ROWS),
}

OBJECT_ARGUMENTS = {
    "SourceProblem-px": (lambda v: SourceProblem(px=v, distortion=hamming_distortion(3)),
                         "SourceProblem: px", PX),
    "Channel.constant-q": (lambda v: Channel.constant(v, 2), "Channel.constant: q", PX),
    "entropy-p": (entropy, "entropy: p", PX),
    "varentropy-p": (varentropy, "varentropy: p", PX),
    "kl_divergence-p": (lambda v: kl_divergence(v, PX), "kl_divergence: p", PX),
    "kl_divergence-q": (lambda v: kl_divergence(PX, v), "kl_divergence: q", PX),
    "conditional_entropy-j": (conditional_entropy, "conditional_entropy: j", JOINT),
    "mutual_information-px": (lambda v: mutual_information(v, CHANNEL),
                              "mutual_information: px", PX),
    "mutual_information-ch": (lambda v: mutual_information(PX, v),
                              "mutual_information: ch", CHANNEL),
    "information_density-j": (lambda v: information_density(v, 0, 0),
                              "information_density: j", JOINT),
    "posterior-px": (lambda v: posterior(v, CHANNEL), "posterior: px", PX),
    "posterior-ch": (lambda v: posterior(PX, v), "posterior: ch", CHANNEL),
    "joint_from_source_and_channel-px": (lambda v: joint_from_source_and_channel(v, CHANNEL),
                                         "joint_from_source_and_channel: px", PX),
    "joint_from_source_and_channel-ch": (lambda v: joint_from_source_and_channel(PX, v),
                                         "joint_from_source_and_channel: ch", CHANNEL),
    "log_loss-q": (lambda v: log_loss(0, v), "log_loss: q", PX),
    "distortion_bounds-problem": (distortion_bounds, "distortion_bounds: problem", SKEW3),
    "rd_at_distortion-problem": (lambda v: rd_at_distortion(v, 0.2),
                                 "rd_at_distortion: problem", SKEW3),
    "rd_curve-problem": (lambda v: rd_curve(v, [0.2]), "rd_at_distortion: problem", SKEW3),
    "tilted_information-problem": (lambda v: tilted_information(v, POINT),
                                   "tilted_information: problem", SKEW3),
    "tilted_information-point": (lambda v: tilted_information(SKEW3, v),
                                 "tilted_information: point", POINT),
    "verify_csiszar_identity-problem": (lambda v: verify_csiszar_identity(v, POINT),
                                        "verify_csiszar_identity: problem", SKEW3),
    "verify_csiszar_identity-point": (lambda v: verify_csiszar_identity(SKEW3, v),
                                      "verify_csiszar_identity: point", POINT),
    "logloss_rd-px": (lambda v: logloss_rd(v, 0.2), "logloss_rd: px", PX),
    "verify_lemma1-px": (lambda v: verify_lemma1(v, Q_ROWS, POINT.forward),
                         "verify_lemma1: px", PX),
    "verify_lemma1-weights": (lambda v: verify_lemma1(PX, Q_ROWS, v),
                              "verify_lemma1: weights", POINT.forward),
    "expected_distortion-problem": (lambda v: expected_distortion(v, CODE),
                                    "expected_distortion: problem", SKEW3),
    "expected_distortion-code": (lambda v: expected_distortion(SKEW3, v),
                                 "expected_distortion: code", CODE),
    "solve_avg-problem": (lambda v: solve_avg(v, 2), "solve_avg: problem", SKEW3),
    "solve_avg_oracle-problem": (lambda v: solve_avg_oracle(v, 2),
                                 "solve_avg_oracle: problem", SKEW3),
    "solve_excess-problem": (lambda v: solve_excess(v, 2, 0.5), "solve_excess: problem", SKEW3),
    "excess_witness-problem": (lambda v: excess_witness(v, 2, 0.5),
                               "excess_witness: problem", SKEW3),
    "solve_codebook-problem": (lambda v: solve_codebook(v, 0.5, 0.1),
                               "solve_codebook: problem", SKEW3),
    "logloss_avg_optimum-px": (lambda v: logloss_avg_optimum(v, 2),
                               "logloss_avg_optimum: px", PX),
    "logloss_excess_optimum-px": (lambda v: logloss_excess_optimum(v, 2, 0.5),
                                  "logloss_excess_optimum: px", PX),
    "logloss_codebook-px": (lambda v: logloss_codebook(v, 0.5, 0.1), "logloss_codebook: px", PX),
    "logloss_excess_oracle-px": (lambda v: logloss_excess_oracle(v, 2, 0.5),
                                 "logloss_excess_oracle: px", PX),
    "build_corresponding-problem": (lambda v: build_corresponding(v, 2),
                                    "build_corresponding: problem", SKEW3),
    "map_code-cp": (lambda v: map_code(v, CODE), "map_code: cp", CP),
    "map_code-code": (lambda v: map_code(CP, v), "map_code: code", CODE),
    "unmap_code-cp": (lambda v: unmap_code(v, LCODE), "unmap_code: cp", CP),
    "unmap_code-lcode": (lambda v: unmap_code(CP, v), "unmap_code: lcode", LCODE),
    "expected_log_loss-px": (lambda v: expected_log_loss(v, LCODE), "expected_log_loss: px", PX),
    "expected_log_loss-lcode": (lambda v: expected_log_loss(PX, v),
                                "expected_log_loss: lcode", LCODE),
    "verify_theorem1-cp": (lambda v: verify_theorem1(v, CODE), "map_code: cp", CP),
    "verify_theorem1-code": (lambda v: verify_theorem1(CP, v), "map_code: code", CODE),
    "suboptimality_gap-cp": (lambda v: suboptimality_gap(v, CODE), "map_code: cp", CP),
    "suboptimality_gap-code": (lambda v: suboptimality_gap(CP, v), "map_code: code", CODE),
    "identity_sweep-cp": (identity_sweep, "identity_sweep: cp", CP),
    "identity_bound-cp": (identity_bound, "identity_bound: cp", CP),
    "verify_optimum_coincidence-cp": (verify_optimum_coincidence,
                                      "verify_optimum_coincidence: cp", CP),
    "construct_sr-problem": (lambda v: construct_sr(v, 0.9, 0.15), "construct_sr: problem",
                             SKEW3),
    "construct_sr_chain-problem": (lambda v: construct_sr_chain(v, [0.9], 0.15),
                                   "construct_sr_chain: problem", SKEW3),
    "chain_step_channel-coarse": (lambda v: chain_step_channel(v, CHAIN[1]),
                                  "chain_step_channel: coarse", CHAIN[0]),
    "chain_step_channel-fine": (lambda v: chain_step_channel(CHAIN[0], v),
                                "chain_step_channel: fine", CHAIN[1]),
    "verify_sr-c": (verify_sr, "verify_sr: c", SR),
    "timeshare_simulate-px": (lambda v: timeshare_simulate(v, 0.5, 10, 0),
                              "timeshare_simulate: px", PX),
    "timeshare_two_decoders-px": (lambda v: timeshare_two_decoders(v, 0.9, 0.3, 10, 0),
                                  "timeshare_two_decoders: px", PX),
}
# id "function-case": (call, the whole message it raises)
MISMATCHES = {
    "kl_divergence-q": (lambda: kl_divergence(PX, PMF2),
                        "kl_divergence: q.n = 2 must equal p.n = 3"),
    "mutual_information-ch": (lambda: mutual_information(PX, Channel.identity(2)),
                              "mutual_information: ch.n_in = 2 must equal px.n = 3"),
    "posterior-ch": (lambda: posterior(PMF2, CHANNEL),
                     "posterior: ch.n_in = 3 must equal px.n = 2"),
    "joint_from_source_and_channel-ch": (
        lambda: joint_from_source_and_channel(PMF2, CHANNEL),
        "joint_from_source_and_channel: ch.n_in = 3 must equal px.n = 2"),
    "log_loss_seq-qs": (lambda: log_loss_seq([0, 1], [PX]),
                        "log_loss_seq: len(qs) = 1 must equal len(xs) = 2"),
    "SourceProblem-distortion": (
        lambda: SourceProblem(px=PX, distortion=hamming_distortion(2)),
        "SourceProblem: len(distortion) = 2 must equal px.n = 3"),
    # Each of these once ended in a raw IndexError (two symbols) or
    # answered (one symbol, or a column the problem lacks).
    "tilted_information-two_symbols": (
        lambda: tilted_information(SKEW2, POINT),
        "tilted_information: point.forward.n_in = 3 must equal problem.n_source = 2"),
    "tilted_information-one_symbol": (
        lambda: tilted_information(ONE_SYMBOL, POINT),
        "tilted_information: point.forward.n_in = 3 must equal problem.n_source = 1"),
    "tilted_information-kept_columns": (
        lambda: tilted_information(TWO_COLUMNS, POINT),
        "tilted_information: point.kept_columns[2] must be an integer in [0, 1], got 2"),
    "verify_csiszar_identity-two_symbols": (
        lambda: verify_csiszar_identity(SKEW2, POINT),
        "verify_csiszar_identity: point.forward.n_in = 3 must equal problem.n_source = 2"),
    "verify_csiszar_identity-one_symbol": (
        lambda: verify_csiszar_identity(ONE_SYMBOL, POINT),
        "verify_csiszar_identity: point.forward.n_in = 3 must equal problem.n_source = 1"),
    "verify_csiszar_identity-kept_columns": (
        lambda: verify_csiszar_identity(TWO_COLUMNS, POINT),
        "verify_csiszar_identity: point.kept_columns[2] must be an integer in [0, 1], got 2"),
    "verify_lemma1-weights": (lambda: verify_lemma1(PX, Q_ROWS, Channel.identity(2)),
                              "verify_lemma1: weights.n_in = 2 must equal px.n = 3"),
    "verify_lemma1-q_rows": (lambda: verify_lemma1(PX, Q_ROWS[:2], POINT.forward),
                             "verify_lemma1: len(q_rows) = 2 must equal weights.n_out = 3"),
    "verify_lemma1-q_rows_entry": (
        lambda: verify_lemma1(PX, [Q_ROWS[0], PMF2, Q_ROWS[2]], POINT.forward),
        "verify_lemma1: q_rows[1].n = 2 must equal px.n = 3"),
    "OneShotCode-decoder": (lambda: OneShotCode(2, (0, 1, 1), (0,)),
                            "OneShotCode: len(decoder) = 1 must equal n_messages = 2"),
    "LogLossCode-decoder_rows": (lambda: LogLossCode(2, (0, 1, 1), (PX,)),
                                 "LogLossCode: len(decoder_rows) = 1 must equal n_messages = 2"),
    "expected_distortion-encoder": (
        lambda: expected_distortion(SKEW3, OneShotCode(2, (0, 1), (0, 1))),
        "expected_distortion: len(code.encoder) = 2 must equal problem.n_source = 3"),
    "expected_distortion-decoder": (
        lambda: expected_distortion(TWO_COLUMNS, OneShotCode(2, (0, 1, 1), (0, 2))),
        "expected_distortion: code.decoder[1] must be an integer in [0, 1], got 2"),
    "map_code-n_messages": (lambda: map_code(CP, OneShotCode(3, (0, 1, 2), (0, 1, 2))),
                            "map_code: code.n_messages = 3 must equal cp.n_messages = 2"),
    "map_code-encoder": (lambda: map_code(CP, OneShotCode(2, (0, 1), (0, 1))),
                         "map_code: len(code.encoder) = 2 must equal cp.px.n = 3"),
    # Once a MappingError that called the missing column pruned.
    "map_code-decoder": (lambda: map_code(CP, OneShotCode(2, (0, 1, 1), (0, 7))),
                         "map_code: code.decoder[1] must be an integer in [0, 2], got 7"),
    "unmap_code-n_messages": (
        lambda: unmap_code(CP, LogLossCode(1, (0, 0, 0), LCODE.decoder_rows[:1])),
        "unmap_code: lcode.n_messages = 1 must equal cp.n_messages = 2"),
    # Once carried back into a OneShotCode without complaint.
    "unmap_code-encoder": (lambda: unmap_code(CP, LogLossCode(2, (0, 1), LCODE.decoder_rows)),
                           "unmap_code: len(lcode.encoder) = 2 must equal cp.px.n = 3"),
    "unmap_code-decoder_rows": (
        lambda: unmap_code(CP, LogLossCode(2, (0, 1, 1), (PMF2, LCODE.decoder_rows[1]))),
        "unmap_code: lcode.decoder_rows[0].n = 2 must equal cp.px.n = 3"),
    "expected_log_loss-encoder": (
        lambda: expected_log_loss(PX, LogLossCode(2, (0, 1), LCODE.decoder_rows)),
        "expected_log_loss: len(lcode.encoder) = 2 must equal px.n = 3"),
    "expected_log_loss-decoder_rows": (
        lambda: expected_log_loss(PX, LogLossCode(2, (0, 1, 1), (PMF2, PMF2))),
        "expected_log_loss: lcode.decoder_rows[0].n = 2 must equal px.n = 3"),
    "verify_theorem1-code": (lambda: verify_theorem1(CP, OneShotCode(2, (0, 1), (0, 1))),
                             "map_code: len(code.encoder) = 2 must equal cp.px.n = 3"),
    "suboptimality_gap-code": (lambda: suboptimality_gap(CP, OneShotCode(2, (0, 1), (0, 1))),
                               "map_code: len(code.encoder) = 2 must equal cp.px.n = 3"),
    "chain_step_channel-fine": (
        lambda: chain_step_channel(CHAIN[0], construct_sr(SKEW2, 0.5, 0.1)),
        "chain_step_channel: fine.z_alphabet = (0, 1, 'erasure') must equal "
        "coarse.z_alphabet = (0, 1, 2, 'erasure')"),
}

# id "function-argument": (call, the whole message it raises)
ORDER_AND_EMPTINESS = {
    "construct_sr_chain-ds_order": (
        lambda: construct_sr_chain(SKEW3, [0.8, 0.9], 0.15),
        "construct_sr_chain: ds[1] = 0.9 must not exceed ds[0] = 0.8"),
    "timeshare_two_decoders-d2": (
        lambda: timeshare_two_decoders(Pmf.uniform(4), 0.2, 0.4, 100, 0),
        "timeshare_two_decoders: d2 = 0.4 must not exceed d1 = 0.2"),
    "chain_step_channel-fine_delta": (
        lambda: chain_step_channel(CHAIN[1], CHAIN[0]),
        "chain_step_channel: fine.delta = 0.7422261021618952 must not exceed "
        "coarse.delta = 0.5434078180688463"),
    "construct_sr_chain-ds_empty": (lambda: construct_sr_chain(SKEW3, [], 0.15),
                                    "construct_sr_chain: ds must not be empty"),
    "log_loss_seq-xs": (lambda: log_loss_seq([], []), "log_loss_seq: xs must not be empty"),
    "OneShotCode-encoder": (lambda: OneShotCode(1, (), (0,)),
                            "OneShotCode: encoder must not be empty"),
    "LogLossCode-encoder": (lambda: LogLossCode(1, (), (PX,)),
                            "LogLossCode: encoder must not be empty"),
    "Pmf-probs": (lambda: Pmf([]), "Pmf: probs must not be empty"),
    "Channel-rows": (lambda: Channel(np.zeros((2, 0))), "Channel: rows must not be empty"),
    "Joint-table": (lambda: Joint(np.zeros((0, 2))), "Joint: table must not be empty"),
    "renormalize-weights": (lambda: renormalize([]), "renormalize: weights must not be empty"),
    "SourceProblem-distortion": (
        lambda: SourceProblem(px=Pmf([1.0]), distortion=np.zeros((1, 0))),
        "SourceProblem: distortion must not be empty"),
}

# The classes a caller builds and hands in.  Every other class in
# loglosslab.__all__ is a result record or an exception, which no public
# function takes.
RECORDS = (Pmf, Channel, Joint, SourceProblem, RdPoint, OneShotCode, LogLossCode,
           CorrespondingProblem, SrConstruction)

# id: (call taking the value, the start of the message it raises, a finite
# value out of range)
OUT_OF_RANGE = {
    # floor(exp(1e308)) is no float: refused, where it once never returned.
    "floor_exp-d": (floor_exp, "floor_exp: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_excess_optimum-d": (lambda v: logloss_excess_optimum(SKEW3.px, 2, v),
                                 "floor_exp: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_excess_oracle-d": (lambda v: logloss_excess_oracle(SKEW3.px, 2, v),
                                "floor_exp: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_codebook-d": (lambda v: logloss_codebook(SKEW3.px, v, 0.0),
                           "floor_exp: d must be at most 709.783, got 1e+308", 1e308),
}

NOT_REAL = [None, "0.5", math.nan, math.inf, True]
# Integers that no float can hold: math.isfinite raises OverflowError on them.
TOO_LARGE = {"1e400": 10**400, "-1e400": -10**400}
CASES = ([pytest.param(call, prefix, value, id=f"{name}-{value!r}")
          for name, (call, prefix, _) in REAL_ARGUMENTS.items() for value in NOT_REAL]
         + [pytest.param(call, prefix, value, id=f"{name}-{label}")
            for name, (call, prefix, _) in REAL_ARGUMENTS.items()
            for label, value in TOO_LARGE.items()]
         + [pytest.param(call, prefix, value, id=f"{name}-{value!r}")
            for name, (call, prefix, _) in INTEGER_ARGUMENTS.items()
            for value in NOT_REAL + [1.5]])
NOT_SEQUENCE = [None, 0.5, "0.5"]
NOT_OBJECT = [None, [0.5, 0.3, 0.2], "px"]
OBJECT_CASES = ([pytest.param(call, prefix, value, id=f"{name}-{value!r}")
                 for name, (call, prefix, _) in SEQUENCE_ARGUMENTS.items()
                 for value in NOT_SEQUENCE]
                + [pytest.param(call, prefix, value, id=f"{name}-{value!r}")
                   for name, (call, prefix, _) in OBJECT_ARGUMENTS.items()
                   for value in NOT_OBJECT])


@pytest.mark.parametrize("call, prefix, value", CASES)
def test_wrong_kind_of_scalar_is_a_named_validation_error(call, prefix, value):
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value).startswith(f"{prefix} must "), str(err.value)


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_finite_value_out_of_range_is_a_named_validation_error(name):
    call, prefix, value = OUT_OF_RANGE[name]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value).startswith(prefix), str(err.value)


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS) + sorted(INTEGER_ARGUMENTS))
def test_each_call_accepts_a_valid_value(name):
    # So each case above fails on its value alone.
    call, _, valid = {**REAL_ARGUMENTS, **INTEGER_ARGUMENTS}[name]
    call(valid)


@pytest.mark.parametrize("call, prefix, value", OBJECT_CASES)
def test_wrong_kind_of_sequence_or_object_is_a_named_validation_error(call, prefix, value):
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value).startswith(f"{prefix} must "), str(err.value)


@pytest.mark.parametrize("name, call, valid", [
    pytest.param(name, call, valid, id=name)
    for cases in (SEQUENCE_ARGUMENTS, OBJECT_ARGUMENTS)
    for name, (call, _, valid) in cases.items()])
def test_each_sequence_or_object_call_accepts_a_valid_value(name, call, valid):
    call(valid)


def public_functions():
    """(name, function) for each function and static method in loglosslab.__all__."""
    for name in loglosslab.__all__:
        value = getattr(loglosslab, name)
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            yield from ((f"{name}.{attr}", raw.__func__) for attr, raw in vars(value).items()
                        if isinstance(raw, staticmethod))


def record_arguments() -> list[str]:
    """"function-argument" for each public argument annotated with a record class."""
    return [f"{name}-{arg}" for name, function in public_functions()
            for arg, kind in typing.get_type_hints(function).items()
            if arg != "return" and isinstance(kind, type) and issubclass(kind, RECORDS)]


def test_every_record_argument_has_a_row():
    arguments = record_arguments()
    assert [a for a in arguments if a not in OBJECT_ARGUMENTS] == []
    # The one row the walk does not reach checks a constructor's field.
    assert set(OBJECT_ARGUMENTS) - set(arguments) == {"SourceProblem-px"}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_arguments_that_do_not_fit_are_a_named_validation_error(name):
    call, message = MISMATCHES[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(ORDER_AND_EMPTINESS))
def test_values_out_of_order_or_an_empty_sequence_are_a_named_validation_error(name):
    call, message = ORDER_AND_EMPTINESS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_values_in_order_within_the_slack_are_accepted():
    assert [c.d1 for c in construct_sr_chain(SKEW3, [0.8, 0.8 + 1e-13], 0.15)] == [
        0.8, 0.8 + 1e-13]
    coarse, fine = timeshare_two_decoders(Pmf.uniform(4), 0.2, 0.2 + 1e-13, 100, 0)
    assert coarse.lossless_prefix == fine.lossless_prefix
    fine_layer = dataclasses.replace(CHAIN[1], delta=CHAIN[1].delta + 1e-13)
    assert chain_step_channel(CHAIN[1], fine_layer).n_in == len(CHAIN[1].z_alphabet)


def test_order_and_feasibility_share_one_slack(monkeypatch):
    # Widening the one slack admits both a later value above the earlier
    # and a target below its feasible interval.
    monkeypatch.setattr(errors, "_SLACK", 0.1)
    coarse, fine = timeshare_two_decoders(Pmf.uniform(4), 0.2, 0.25, 100, 0)
    assert (coarse.lossless_prefix, fine.lossless_prefix) == (86, 82)
    assert timeshare_simulate(Pmf.uniform(4), -0.05, 100, 0).lossless_prefix == 100


def test_every_function_of_two_records_has_a_mismatch_row():
    counts = collections.Counter(a.split("-")[0] for a in record_arguments())
    with_rows = {name.split("-")[0] for name in MISMATCHES}
    assert sorted(f for f, n in counts.items() if n >= 2 and f not in with_rows) == []


def test_every_public_dataclass_is_a_record_or_a_result():
    # A new class must be placed: a record class gets the contract rows.
    dataclass_names = {name for name in loglosslab.__all__
                       if dataclasses.is_dataclass(getattr(loglosslab, name))}
    results = {"RdDiagnostics", "Lemma1Report", "PartitionScheme", "ExcessScheme",
               "Theorem1Check", "IdentitySweep", "CoincidenceReport", "SrCheck", "SrReport",
               "TimeshareReport"}
    assert dataclass_names == results | {kind.__name__ for kind in RECORDS}


def test_a_sequence_argument_may_be_any_iterable():
    # A generator is read once; the code keeps the entries as a tuple.
    code = OneShotCode(2, (x % 2 for x in range(3)), iter([1, 0]))
    assert code.encoder == (0, 1, 0) and code.decoder == (1, 0)
    assert code == OneShotCode(2, [0, 1, 0], [1, 0])
