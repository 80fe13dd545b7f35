"""Problem files, report documents, and table rendering.

A problem file is a small YAML document:

    name: skewed3            # optional
    description: ...         # optional
    labels: [a, b, c]        # optional source-symbol names, length r
    px: [0.5, 0.3, 0.2]      # required source pmf
    distortion: hamming      # or an explicit r x s matrix (list of rows)

Numbers may use an exponent, as in 1e-3 (YAML 1.2).  Each field is
checked by the rules of the record or rule that takes it, the ones every
caller of the library meets (``Pmf``, ``SourceProblem``, ``Seq``), and a
refusal names the file and the field: ``skewed3.yaml: field 'px': Pmf:
probs[1] must be a real number, got '0.5'``.

Reports are JSON with keys sorted and every float rounded to 12 significant
digits, so re-running a command byte-reproduces the document (the wall-clock
field is stripped before such comparisons).  Parsing a report back recovers
each number to the printed precision.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import Seq, ValidationError, _Instance, _require_size
from .probability import Pmf
from .ratedistortion import SourceProblem, hamming_distortion

__all__ = [
    "REPORT_DIGITS",
    "LoadedProblem",
    "load_problem",
    "parse_float_list",
    "round_sig",
    "jsonable",
    "dump_report",
    "render_table",
]

REPORT_DIGITS = 12

_ALLOWED_FIELDS = {"name", "description", "labels", "px", "distortion"}
# PyYAML resolves floats by YAML 1.1, which wants a dot and a signed
# exponent, so 1e-3 and 1e308 would load as strings.  YAML 1.2 reads a
# float with any exponent.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


def _exponent_float_loader(base: type) -> type:
    """A subclass of the loader ``base`` that also reads YAML 1.2 exponent floats.

    ``base`` keeps its own resolvers: PyYAML copies them into the subclass
    before adding one.
    """
    loader = type(base.__name__, (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return loader


# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both build the document with SafeLoader's constructor and resolver, plus
# the exponent floats.  The libyaml parser's errors give the line and
# column but not the source line.
_YAML_LOADER = _exponent_float_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass(frozen=True, eq=False)
class LoadedProblem:
    """A problem file after validation, plus its presentation metadata."""

    path: str
    name: str | None
    description: str | None
    labels: tuple[str, ...] | None
    problem: SourceProblem

    def echo(self) -> dict:
        """The inputs block reports embed: what was actually solved."""
        doc = {
            "path": self.path,
            "px": self.problem.px.probs.tolist(),
            "distortion": self.problem.distortion.tolist(),
        }
        if self.name is not None:
            doc["name"] = self.name
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc


def _field(path: str, name: str, read, *args):
    """``read(*args)``, a refusal named as the file's field ``name``."""
    try:
        return read(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: field {name!r}: {exc}") from exc


def _problem(px: Pmf, distortion) -> SourceProblem:
    """The problem of ``px`` and a matrix, or of the name of one ('hamming' only)."""
    if isinstance(distortion, str):
        if distortion != "hamming":
            raise ValidationError(f"unknown named matrix {distortion!r} (only 'hamming')")
        distortion = hamming_distortion(px.n)
    return SourceProblem(px, distortion)


def load_problem(path: str | Path) -> LoadedProblem:
    """Parse and validate a problem file; errors name the offending field."""
    path = str(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read problem file {path}: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ValidationError(f"{path}: invalid YAML{where}: {exc}") from exc

    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a YAML mapping at top level")
    unknown = sorted(set(doc) - _ALLOWED_FIELDS)
    if unknown:
        raise ValidationError(f"{path}: unknown field(s) {unknown}; "
                              f"allowed: {sorted(_ALLOWED_FIELDS)}")
    missing = sorted({"px", "distortion"} - set(doc))
    if missing:
        raise ValidationError(f"{path}: missing field(s) {missing}")

    px = _field(path, "px", Pmf, doc["px"])
    problem = _field(path, "distortion", _problem, px, doc["distortion"])
    labels = None
    if "labels" in doc:
        labels = _field(path, "labels", Seq(str).check, "labels", doc["labels"])
        _field(path, "labels", _require_size, "len(labels)", len(labels), "px.n", px.n)
    for name in ("name", "description"):
        if name in doc:
            _field(path, name, _Instance(str).check, name, doc[name])

    return LoadedProblem(path, doc.get("name"), doc.get("description"), labels, problem)


def parse_float_list(text: str, flag: str) -> list[float]:
    """Comma-separated floats from a CLI flag value."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag}: empty list")
    return values


def round_sig(x: float) -> float:
    """Round to the report precision; the shortest repr then round-trips."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.{REPORT_DIGITS}g}")


def jsonable(obj):
    """Recursively convert to JSON-friendly types with rounded floats.

    Values keep their unit: the command that builds a report converts it.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    return obj


def dump_report(report: dict) -> str:
    """The report as sorted-key JSON, floats rounded by ``jsonable``."""
    return json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{round_sig(float(value)):.{REPORT_DIGITS}g}"
    return str(value)


def render_table(header: list[str], rows: list[list]) -> str:
    """Tab-separated table with a header row; floats at report precision, None as null."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
