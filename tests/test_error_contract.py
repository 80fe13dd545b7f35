"""A wrong argument or record field is a ValidationError that names it.

Each public function declares the rule of each argument once, on its
signature, and ``errors._checked`` applies the rules before the body runs.
Each record declares the rule of each field the same way, on the field's
annotation, and its constructor applies them first (``errors._check_fields``).
A real argument takes a finite real number that is not a bool (an int too
large for a float is not finite) within its declared bounds; an integer
argument takes an integer that is not a bool, within its bounds; a sequence
argument takes any iterable but a string, and each entry obeys the entry's
rule; an array argument takes a nonempty array of finite nonnegative numbers,
not bools or strings, with the declared number of axes; a record argument
takes an instance of its class.  Anything else raises ValidationError, never
a raw TypeError, AttributeError, OverflowError or IndexError, with a message
that starts with the public function or record that was called and the
argument's name (``rd_curve: grid[1] must be finite, got nan``).
The cases are derived from the declarations: each wrong kind of value, and
each value just past a declared bound, goes into one valid call per public
function or method (``VALID``), or replaces one field of a valid instance of
each record (``RECORDS``).  A parameter that declares no rule is named in
``EXEMPT``, with the rule its body checks where another argument sets the
bound; a declared sequence whose entries another argument bounds is named in
``ENTRY_BOUNDS``.  A bound that only a body states, such as ``floor_exp``'s
largest d, names the called function, also where that function reaches
the bound through another public function (``logloss_codebook`` through
``floor_exp``; ``OUT_OF_RANGE``).  Every array field of a record declares
its rule.
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
``ORDER_AND_EMPTINESS``, or a derived case where a declaration states it.
A distortion target outside the curve's feasible interval raises
InfeasibleError naming the called function and its argument, and a solve
that misses its target a ConvergenceError naming the called function, also
when the function solves the point through a helper (``UNREACHABLE``).
"""

import collections
import dataclasses
import functools
import inspect
import math
import time
import typing
from typing import Annotated

import numpy as np
import pytest

import loglosslab
from loglosslab import errors
from loglosslab.errors import Array, Int, Real, Seq
from loglosslab import (
    Channel,
    ConvergenceError,
    CorrespondingProblem,
    DegenerateInstanceError,
    InfeasibleError,
    InstanceTooLargeError,
    Joint,
    LogLossCode,
    OneShotCode,
    Pmf,
    RdPoint,
    SourceProblem,
    SrConstruction,
    ValidationError,
    VerificationError,
    build_corresponding,
    chain_step_channel,
    conditional_entropy,
    construct_sr,
    construct_sr_chain,
    distortion_bounds,
    entropy,
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
TWO_COLUMNS = SourceProblem(px=PX, distortion=1.0 - np.eye(3, 2))
PMF2 = Pmf([0.5, 0.5])

# One call per public function or method that each of its arguments passes;
# an argument left out takes its default, and a method's first is its instance.
VALID = {
    "Pmf.uniform": (3,),
    "Pmf.point_mass": (3, 2),
    "Channel.identity": (3,),
    "Channel.constant": (PX, 2),
    "renormalize": ([1.0, 3.0],),
    "entropy": (PX,),
    "varentropy": (PX,),
    "kl_divergence": (PX, PX),
    "conditional_entropy": (JOINT,),
    "mutual_information": (PX, CHANNEL),
    "information_density": (JOINT, 1, 1),
    "posterior": (PX, CHANNEL),
    "joint_from_source_and_channel": (PX, CHANNEL),
    "log_loss": (2, PX),
    "log_loss_seq": ([0, 2], [PX, PX]),
    "hamming_distortion": (3,),
    "distortion_bounds": (SKEW3,),
    "rd_at_distortion": (SKEW3, 0.2),
    "rd_curve": (SKEW3, [0.2, 0.3]),
    "tilted_information": (SKEW3, POINT),
    "verify_csiszar_identity": (SKEW3, POINT),
    "logloss_rd": (PX, 0.2),
    "verify_lemma1": (PX, Q_ROWS, POINT.forward),
    "expected_distortion": (SKEW3, CODE),
    "solve_avg": (SKEW3, 2),
    "solve_avg_oracle": (SKEW3, 2),
    "solve_excess": (SKEW3, 2, 0.5),
    "solve_codebook": (SKEW3, 0.5, 0.1),
    "logloss_avg_optimum": (PX, 2),
    "logloss_excess_optimum": (PX, 2, 0.5),
    "logloss_codebook": (PX, 0.5, 0.1),
    "logloss_excess_oracle": (PX, 2, 0.5),
    "floor_exp": (0.5,),
    "build_corresponding": (SKEW3, 2),
    "map_code": (CP, CODE),
    "unmap_code": (CP, LCODE),
    "expected_log_loss": (PX, LCODE),
    "verify_theorem1": (CP, CODE),
    "suboptimality_gap": (CP, CODE),
    "identity_sweep": (CP,),
    "identity_bound": (CP,),
    "verify_optimum_coincidence": (CP,),
    "construct_sr": (SKEW3, 0.9, 0.15),
    "construct_sr_chain": (SKEW3, [0.9, 0.8], 0.15),
    "chain_step_channel": (CHAIN[0], CHAIN[1]),
    "verify_sr": (SR,),
    "timeshare_simulate": (PX, 0.5, 10, 0),
    "timeshare_two_decoders": (PX, 0.9, 0.3, 10, 0),
    "Pmf.support": (PX,),
    "Channel.row": (CHANNEL, 1),
    "Joint.marginal_x": (JOINT,),
    "Joint.marginal_y": (JOINT,),
}

# Parameters that declare no rule: (function, parameter) -> the rule the
# body checks, at the bounds that VALID's other arguments set, or None.
EXEMPT = {
    # An index whose upper bound is another argument's size.
    ("Pmf.point_mass", "x"): Int(0, 2),
    ("information_density", "x"): Int(0, 1),
    ("information_density", "y"): Int(0, 1),
    ("log_loss", "x"): Int(0, 2),
    ("Channel.row", "x"): Int(0, 2),
}

# A declared sequence whose entries another argument or field bounds:
# (function or record, parameter) -> the rule the body checks in full, at
# the bounds that VALID or RECORDS set.
ENTRY_BOUNDS = {
    ("log_loss_seq", "xs"): Seq(Int(0, 2), nonempty=True),
    ("OneShotCode", "encoder"): Seq(Int(0, 1), nonempty=True),
    ("LogLossCode", "encoder"): Seq(Int(0, 1), nonempty=True),
}

# A valid instance of each class a caller builds and hands in.  Every other
# class in loglosslab.__all__ is a result record or an exception, which no
# public function takes.
RECORDS = {Pmf: PX, Channel: CHANNEL, Joint: JOINT, SourceProblem: SKEW3, RdPoint: POINT,
           OneShotCode: CODE, LogLossCode: LCODE, CorrespondingProblem: CP,
           SrConstruction: SR}

NOT_REAL = [None, "0.5", math.nan, math.inf, True]
# Integers that no float can hold: math.isfinite raises OverflowError on them.
TOO_LARGE = {"1e400": 10**400, "-1e400": -10**400}
# A mapping iterates as its keys, and a set in no fixed order, so neither
# is a sequence of them.
NOT_SEQUENCE = [None, 0.5, "0.5", {0.5: "x"}, {0.5}]
NOT_OBJECT = [None, [0.5, 0.3, 0.2], "px"]


def public_functions() -> dict:
    """Qualified name -> function, for each public function and method in loglosslab.__all__.

    A method is a static or instance method of a class there whose name does
    not start with an underscore.
    """
    found = {}
    for name in loglosslab.__all__:
        value = getattr(loglosslab, name)
        if inspect.isfunction(value):
            found[name] = value
        elif inspect.isclass(value):
            methods = {attr: getattr(raw, "__func__", raw) for attr, raw in vars(value).items()}
            found.update((f"{name}.{attr}", method) for attr, method in methods.items()
                         if inspect.isfunction(method) and not attr.startswith("_"))
    return found


PUBLIC = public_functions()
# Each callable whose arguments the cases wrong: the public functions and
# methods, and each record class, called with its valid instance's fields.
CALLS = {**PUBLIC, **{kind.__name__: kind for kind in RECORDS}}
VALID_CALLS = {**VALID, **{kind.__name__: tuple(getattr(valid, field.name)
                                                for field in dataclasses.fields(kind))
                           for kind, valid in RECORDS.items()}}


def parameters(qualname: str) -> list[str]:
    """The parameters of a public function or method, its instance left out."""
    return [name for name in inspect.signature(PUBLIC[qualname]).parameters if name != "self"]


def rules(qualname: str) -> dict:
    """Parameter -> rule of each declared or exempt parameter of a callable in CALLS."""
    declared = {name: rule for _, name, rule in errors._plan(CALLS[qualname])}
    exempt = {name: rule for (owner, name), rule in {**EXEMPT, **ENTRY_BOUNDS}.items()
              if owner == qualname}
    return {name: rule for name, rule in {**declared, **exempt}.items() if rule is not None}


def as_numpy(cases: list) -> list:
    """The cases, and again each whose value is a float or an int64 as np.float64 or np.int64."""
    return cases + [(f"{label}-as-numpy", np.float64(v) if type(v) is float else np.int64(v), rest)
                    for label, v, rest in cases
                    if type(v) is float or (type(v) is int and -2**63 <= v < 2**63)]


def wrong_values(rule, valid) -> list:
    """(label, value, the message's text after the argument's name) for each value refused.

    The wrong kinds of value and each value just past a declared bound; for a
    sequence, also its valid value with the last entry wrong or with none; for
    an array, its valid value with the last entry wrong, with an axis more,
    with no entry, as lists of numeric strings or of bools, as a list whose
    last entry is None, too large for a float, or complex, or as a list of
    arrays that numpy cannot stack.
    """
    if isinstance(rule, Real):
        past = [math.nextafter(bound, away) for bound, away in
                ((rule.low, -math.inf), (rule.high, math.inf)) if bound is not None]
        values = NOT_REAL + past + ([0.0] if rule.positive else [])
        return as_numpy([(repr(v), v, " must ") for v in values]
                        + [(label, v, " must ") for label, v in TOO_LARGE.items()])
    if isinstance(rule, Int):
        values = NOT_REAL + [1.5, rule.minimum - 1] + (
            [] if rule.maximum is None else [rule.maximum + 1])
        return as_numpy([(repr(v), v, " must ") for v in values])
    if isinstance(rule, Seq):
        last = len(valid) - 1
        entries = [] if rule.entry is None else [
            (f"entry-{label}", list(valid)[:last] + [v], f"[{last}]{rest}")
            for label, v, rest in wrong_values(rule.entry, valid[last])]
        return ([(repr(v), v, " must ") for v in NOT_SEQUENCE] + entries
                + ([("empty", [], " must not be empty")] if rule.nonempty else []))
    if isinstance(rule, Array):
        valid = np.array(valid, dtype=float)

        def last_entry(v):
            wrong = valid.copy()
            wrong.flat[-1] = v
            return wrong

        def last_listed(v):
            wrong = valid.astype(object)
            wrong.flat[-1] = v
            return wrong.tolist()

        ndim = f" must be {rule.ndim}-D, got shape "
        first, last = (f"[{', '.join(map(str, index))}] must be a real number, got "
                       for index in (np.zeros(rule.ndim, int), np.array(valid.shape) - 1))
        return [("str", "px", " is not convertible to floats: "), ("None", None, ndim + "()"),
                # Arrays whose shapes share a first axis only: numpy cannot
                # hold them even as objects.
                ("ragged_arrays", [np.zeros((2, 2)), np.zeros((2, 3))],
                 " is not convertible to floats: "),
                # Each converts to floats, but its entries are not real numbers.
                ("numeric_strings", valid.astype(str).tolist(), first + "'"),
                ("bools", (valid > 0.0).tolist(), first),
                ("None_entry", last_listed(None), last + "None"),
                ("complex_entry", last_listed(0.5 + 0.3j), last + "(0.5+0.3j)"),
                ("complex_array", valid + 0.3j, first),
                # Every entry is a real number, but the last no float can hold.
                ("1e400_entry", last_listed(10**400), " entries must be finite"),
                ("extra_axis", valid[None], ndim + str((1,) + valid.shape)),
                ("empty", valid[:0], " must not be empty"),
                ("nan", last_entry(math.nan), " entries must be finite"),
                ("inf", last_entry(math.inf), " entries must be finite"),
                ("negative", last_entry(-0.5), " entries must be nonnegative")]
    return [(repr(v), v, " must ") for v in NOT_OBJECT]  # a record class or its _Instance rule


def argument_cases(qualname: str):
    """Each wrong value of each argument, put into the valid call of a callable in CALLS."""
    signature = inspect.signature(CALLS[qualname])
    for name, rule in rules(qualname).items():
        valid = signature.bind(*VALID_CALLS[qualname]).arguments.get(name)
        for label, value, rest in wrong_values(rule, valid):
            bound = signature.bind(*VALID_CALLS[qualname])
            bound.arguments[name] = value
            yield pytest.param(functools.partial(CALLS[qualname], *bound.args, **bound.kwargs),
                               f"{qualname}: {name}{rest}", id=f"{qualname}-{name}-{label}")


CASES = [case for qualname in sorted(CALLS) for case in argument_cases(qualname)]


@pytest.mark.parametrize("call, prefix", CASES)
def test_wrong_argument_is_a_validation_error_naming_the_called_function(call, prefix):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value).startswith(prefix), str(err.value)


def message(call) -> str:
    """The message of the ValidationError that ``call()`` raises."""
    with pytest.raises(ValidationError) as err:
        call()
    return str(err.value)


CASE_CALLS = {case.id: case.values[0] for case in CASES}
# id of each case whose wrong value is a numpy scalar: (its call, the call of
# the case that spells the value in Python).  Both must read the same: a
# message once printed np.float64(nan).
AS_NUMPY = {case_id: (call, CASE_CALLS[case_id.removesuffix("-as-numpy")])
            for case_id, call in CASE_CALLS.items() if case_id.endswith("-as-numpy")}


@pytest.mark.parametrize("case", sorted(AS_NUMPY))
def test_a_numpy_scalar_is_refused_as_its_python_spelling(case):
    numpy_call, python_call = AS_NUMPY[case]
    assert message(numpy_call) == message(python_call)


@pytest.mark.parametrize("qualname", sorted(CALLS))
def test_each_valid_call_is_accepted(qualname):
    # So each case above fails on its one wrong value alone.
    CALLS[qualname](*VALID_CALLS[qualname])


def test_every_public_parameter_is_declared_or_exempt():
    assert sorted(PUBLIC) == sorted(VALID)
    declared = {(qualname, name) for qualname, function in PUBLIC.items()
                for _, name, _ in errors._plan(function)}
    params = {(qualname, name) for qualname in PUBLIC for name in parameters(qualname)}
    assert sorted(params - declared - set(EXEMPT)) == []
    # An exemption of a parameter that declares a rule, or of none, is stale.
    assert sorted(set(EXEMPT) - (params - declared)) == []


def test_each_entry_bound_completes_a_declared_sequence():
    # Stale if the declaration changed: the body adds the entries' rule to
    # log_loss_seq's xs, and only their upper bound to a code's encoder.
    declared = {(qualname, name): rule for qualname, function in CALLS.items()
                for _, name, rule in errors._plan(function)}
    assert {("log_loss_seq", "xs"): Seq(nonempty=True),
            ("OneShotCode", "encoder"): Seq(Int(0), nonempty=True),
            ("LogLossCode", "encoder"): Seq(Int(0), nonempty=True)} == {
        key: declared.get(key) for key in ENTRY_BOUNDS}


def test_a_point_declares_its_kept_columns():
    # Once kept_columns=None constructed.  The derived RdPoint cases wrong
    # the field only while it declares its rule.
    assert rules("RdPoint")["kept_columns"] == Seq(Int(0))


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_every_array_field_of_a_record_declares_its_rule(kind):
    # An undeclared array field takes None or a wrong shape unchecked.
    arrays = [field.name for field in dataclasses.fields(kind)
              if isinstance(getattr(RECORDS[kind], field.name), np.ndarray)]
    assert sorted(set(arrays) - set(rules(kind.__name__))) == []


def float_results() -> list[str]:
    """Each callable in VALID whose return annotation is float."""
    return sorted(name for name in VALID
                  if typing.get_type_hints(PUBLIC[name]).get("return") is float)


@pytest.mark.parametrize("qualname", float_results())
def test_a_float_result_is_a_python_float(qualname):
    # expected_log_loss and mutual_information once returned np.float64.
    value = PUBLIC[qualname](*VALID[qualname])
    assert type(value) is float, type(value)


def test_each_float_result_is_checked():
    assert len(float_results()) == 15


# id: (call taking the value, the start of the message it raises, a finite
# value out of range)
OUT_OF_RANGE = {
    # floor(exp(1e308)) is no float: refused, where it once never returned.
    # floor_exp's body checks this bound; the called function is named, also
    # where it calls floor_exp (once named floor_exp).
    "floor_exp-d": (floor_exp, "floor_exp: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_excess_optimum-d": (
        lambda v: logloss_excess_optimum(SKEW3.px, 2, v),
        "logloss_excess_optimum: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_excess_oracle-d": (
        lambda v: logloss_excess_oracle(SKEW3.px, 2, v),
        "logloss_excess_oracle: d must be at most 709.783, got 1e+308", 1e308),
    "logloss_codebook-d": (lambda v: logloss_codebook(SKEW3.px, v, 0.0),
                           "logloss_codebook: d must be at most 709.783, got 1e+308", 1e308),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_finite_value_out_of_range_is_a_named_validation_error(name):
    call, prefix, value = OUT_OF_RANGE[name]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value).startswith(prefix), str(err.value)


def record_arguments() -> list[str]:
    """"function-argument" for each public argument annotated with a record class."""
    return [f"{qualname}-{name}" for qualname, function in PUBLIC.items()
            for _, name, rule in errors._plan(function) if isinstance(rule, errors._Instance)]


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
    # Each of these once ended in a raw numpy ValueError (shapes not broadcast).
    "tilted_information-kept_count": (
        lambda: tilted_information(SKEW3, dataclasses.replace(POINT, kept_columns=(0, 1))),
        "tilted_information: len(point.kept_columns) = 2 must equal point.forward.n_out = 3"),
    "verify_csiszar_identity-kept_count": (
        lambda: verify_csiszar_identity(SKEW3, dataclasses.replace(POINT, kept_columns=(0, 1))),
        "verify_csiszar_identity: len(point.kept_columns) = 2 must equal "
        "point.forward.n_out = 3"),
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
                             "verify_theorem1: len(code.encoder) = 2 must equal cp.px.n = 3"),
    "suboptimality_gap-code": (lambda: suboptimality_gap(CP, OneShotCode(2, (0, 1), (0, 1))),
                               "suboptimality_gap: len(code.encoder) = 2 must equal "
                               "cp.px.n = 3"),
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
}

@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_arguments_that_do_not_fit_are_a_named_validation_error(name):
    call, message = MISMATCHES[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


# SKEW3 with its distortion scaled by 1e50: the solve at 2e49 reaches
# distortion 0.0.
HUGE = SourceProblem(px=PX, distortion=1e50 * hamming_distortion(3))
MISSED = "achieved distortion 0.0 misses the target 2e+49 by more than tol = 1e-08"

# id "function-argument": (call, the error it raises, the whole message)
UNREACHABLE = {
    "rd_at_distortion-d": (lambda: rd_at_distortion(SKEW3, 5.0), InfeasibleError,
                           "rd_at_distortion: d = 5.0 outside the feasible interval [0.0, 0.5]"),
    # Each of these once named rd_at_distortion and its d.
    "rd_curve-grid": (lambda: rd_curve(SKEW3, [0.2, 5.0]), InfeasibleError,
                      "rd_curve: grid[1] = 5.0 outside the feasible interval [0.0, 0.5]"),
    "construct_sr-d2": (lambda: construct_sr(SKEW3, 0.9, 5.0), InfeasibleError,
                        "construct_sr: d2 = 5.0 outside the feasible interval [0.0, 0.5]"),
    "construct_sr_chain-d_final": (
        lambda: construct_sr_chain(SKEW3, [0.9], 5.0), InfeasibleError,
        "construct_sr_chain: d_final = 5.0 outside the feasible interval [0.0, 0.5]"),
    "rd_curve-missed": (lambda: rd_curve(HUGE, [2e49]), ConvergenceError, f"rd_curve: {MISSED}"),
    "construct_sr-missed": (lambda: construct_sr(HUGE, 0.9, 2e49), ConvergenceError,
                            f"construct_sr: {MISSED}"),
    "construct_sr_chain-missed": (lambda: construct_sr_chain(HUGE, [0.9], 2e49),
                                  ConvergenceError, f"construct_sr_chain: {MISSED}"),
    "build_corresponding-missed": (
        lambda: build_corresponding(HUGE, 2), ConvergenceError,
        "build_corresponding: achieved distortion 0.0 misses the target "
        "2.0000000000000002e+49 by more than tol = 1e-08"),
}


@pytest.mark.parametrize("name", sorted(UNREACHABLE))
def test_an_unreachable_target_names_the_called_function(name):
    call, error, message = UNREACHABLE[name]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# id "function-case": (call, the error it raises, the start of its message).
# Each message once named a function the caller did not call (solve_avg) or
# none; the guard, the solve and the floor check run in a callee.
FROM_A_CALLEE = {
    "build_corresponding-guard": (
        lambda: build_corresponding(SourceProblem(Pmf.uniform(24), hamming_distortion(24)), 12),
        InstanceTooLargeError, "build_corresponding: 2704156 column subsets exceeds guard 1000000"),
    "build_corresponding-endpoint": (
        lambda: build_corresponding(SKEW3, 1), DegenerateInstanceError,
        "build_corresponding: D*(1) = 0.5 sits at a curve endpoint of [0.0, 0.5]"),
    "rd_at_distortion-max_iter": (
        lambda: rd_at_distortion(SKEW3, 0.2, max_iter=1), ConvergenceError,
        "rd_at_distortion: solve did not converge in 1 iterations"),
    "verify_theorem1-floor": (
        lambda: verify_theorem1(dataclasses.replace(CP, h_x_given_xhat=CP.h_x_given_xhat + 1.0),
                                CODE), VerificationError, "verify_theorem1: expected log loss "),
    "suboptimality_gap-floor": (
        lambda: suboptimality_gap(dataclasses.replace(CP, h_x_given_xhat=CP.h_x_given_xhat + 1.0),
                                  CODE), VerificationError, "suboptimality_gap: expected log loss "),
}


@pytest.mark.parametrize("name", sorted(FROM_A_CALLEE))
def test_a_refusal_from_a_callee_names_the_called_function(name):
    call, error, prefix = FROM_A_CALLEE[name]
    start = time.perf_counter()
    with pytest.raises(error) as err:
        call()
    assert time.perf_counter() - start < 1.0
    assert str(err.value).startswith(prefix), str(err.value)


@pytest.mark.parametrize("name", sorted(ORDER_AND_EMPTINESS))
def test_values_out_of_order_or_an_empty_sequence_are_a_named_validation_error(name):
    call, message = ORDER_AND_EMPTINESS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


# id "function-argument": (call with numpy scalars, the error it raises, the
# whole message).  Each message once printed a scalar's numpy repr, such as
# np.float64(5.0); all but tol's come from the body, past the rules.
NUMPY_SCALARS = {
    "rd_at_distortion-d": (lambda: rd_at_distortion(SKEW3, np.float64(5.0)), InfeasibleError,
                           "rd_at_distortion: d = 5.0 outside the feasible interval [0.0, 0.5]"),
    "timeshare_two_decoders-d2": (
        lambda: timeshare_two_decoders(PMF2, np.float64(0.1), np.float64(0.5), 10, 1),
        ValidationError, "timeshare_two_decoders: d2 = 0.5 must not exceed d1 = 0.1"),
    "floor_exp-d": (lambda: floor_exp(np.float64(800.0)), ValidationError,
                    "floor_exp: d must be at most 709.783, got 800.0: "
                    "floor(exp(d)) would not be a float"),
    "Pmf.point_mass-x": (lambda: Pmf.point_mass(np.int64(3), np.int64(5)), ValidationError,
                         "Pmf.point_mass: x must be an integer in [0, 2], got 5"),
    "rd_curve-grid": (lambda: rd_curve(SKEW3, np.array([0.2, 5.0])), InfeasibleError,
                      "rd_curve: grid[1] = 5.0 outside the feasible interval [0.0, 0.5]"),
    "rd_at_distortion-tol": (lambda: rd_at_distortion(SKEW3, 0.1, tol=np.float64(-1.0)),
                             ValidationError,
                             "rd_at_distortion: tol must be finite and positive, got -1.0"),
}


@pytest.mark.parametrize("name", sorted(NUMPY_SCALARS))
def test_a_numpy_scalar_is_read_as_a_python_scalar(name):
    call, error, message = NUMPY_SCALARS[name]
    with pytest.raises(error) as err:
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
    results = {"RdDiagnostics", "Lemma1Report", "Theorem1Check",
               "IdentitySweep", "CoincidenceReport", "Check", "SrReport", "TimeshareReport"}
    assert dataclass_names == results | {kind.__name__ for kind in RECORDS}
    # A result declares no field rule, so every declared field is checked.
    assert sorted(name for name in results if errors._plan(getattr(loglosslab, name))) == []


def test_no_public_dataclass_stores_a_verdict():
    # A stored ok can disagree with the values it judges; each report
    # derives its ok from its checks, and a Check from its value and bound.
    stored = [f"{name}.ok" for name in loglosslab.__all__
              if dataclasses.is_dataclass(kind := getattr(loglosslab, name))
              and "ok" in {field.name for field in dataclasses.fields(kind)}]
    assert stored == []


def test_a_sequence_argument_may_be_any_iterable():
    # A generator is read once; the code keeps the entries as a tuple.
    code = OneShotCode(2, (x % 2 for x in range(3)), iter([1, 0]))
    assert code.encoder == (0, 1, 0) and code.decoder == (1, 0)
    assert code == OneShotCode(2, [0, 1, 0], [1, 0])
    assert [p.target_distortion for p in rd_curve(SKEW3, iter([0.2, 0.3]))] == [0.2, 0.3]

    # A declared sequence argument reaches the body as the tuple its check
    # read, the value a record field keeps.
    @errors._checked
    def body(xs: Annotated[tuple, Seq(Real())]):
        return xs

    assert body(iter([0.2, 0.3])) == (0.2, 0.3)
