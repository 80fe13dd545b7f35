"""Scalar arguments of the wrong kind raise a ValidationError that names them.

A real argument takes a finite real number that is not a bool; an integer
argument takes an integer that is not a bool.  Anything else raises
ValidationError, never a raw TypeError or IndexError, with a message that
starts with the function that checked the value and the argument's name.
Where a function hands an argument on unchecked, the check that names it is
the callee's (for example ``construct_sr``'s ``tol`` is checked by
``rd_at_distortion``).  Message counts, seeds, sample counts, iteration
budgets and verifier tolerances have their own parametrized tests.
"""

import math

import pytest

from loglosslab import (
    Joint,
    Pmf,
    SourceProblem,
    ValidationError,
    ba_fixed_slope,
    build_corresponding,
    construct_sr,
    construct_sr_chain,
    floor_exp,
    hamming_distortion,
    information_density,
    log_loss,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_rd,
    rd_at_distortion,
    rd_curve,
    solve_codebook,
    solve_excess,
    timeshare_simulate,
    timeshare_two_decoders,
)
from loglosslab.equivalence import LogLossCode
from loglosslab.oneshot import OneShotCode, excess_witness

SKEW3 = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
JOINT = Joint([[0.3, 0.2], [0.1, 0.4]])

# id: (call taking the value, "checker: argument" that opens the message,
# a value the call accepts)
REAL_ARGUMENTS = {
    "rd_at_distortion-d": (lambda v: rd_at_distortion(SKEW3, v), "rd_at_distortion: d", 0.2),
    "rd_at_distortion-tol": (lambda v: rd_at_distortion(SKEW3, 0.2, tol=v),
                             "rd_at_distortion: tol", 1e-8),
    "rd_curve-grid": (lambda v: rd_curve(SKEW3, [0.2, v]), "rd_at_distortion: d", 0.3),
    "ba_fixed_slope-lam": (lambda v: ba_fixed_slope(SKEW3, v), "ba_fixed_slope: lam", 1.0),
    "ba_fixed_slope-tol": (lambda v: ba_fixed_slope(SKEW3, 1.0, tol=v),
                           "ba_fixed_slope: tol", 1e-10),
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
}

NOT_REAL = [None, "0.5", math.nan, math.inf, True]
CASES = ([pytest.param(call, prefix, value, id=f"{name}-{value!r}")
          for name, (call, prefix, _) in REAL_ARGUMENTS.items() for value in NOT_REAL]
         + [pytest.param(call, prefix, value, id=f"{name}-{value!r}")
            for name, (call, prefix, _) in INTEGER_ARGUMENTS.items()
            for value in NOT_REAL + [1.5]])


@pytest.mark.parametrize("call, prefix, value", CASES)
def test_wrong_kind_of_scalar_is_a_named_validation_error(call, prefix, value):
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value).startswith(f"{prefix} must "), str(err.value)


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS) + sorted(INTEGER_ARGUMENTS))
def test_each_call_accepts_a_valid_value(name):
    # So each case above fails on its value alone.
    call, _, valid = {**REAL_ARGUMENTS, **INTEGER_ARGUMENTS}[name]
    call(valid)
