"""Problem files, report documents, and table rendering.

A problem file is a small YAML document:

    name: skewed3            # optional
    description: ...         # optional
    labels: [a, b, c]        # optional source-symbol names, length r
    px: [0.5, 0.3, 0.2]      # required source pmf
    distortion: hamming      # or an explicit r x s matrix (list of rows)

Numbers may use an exponent, as in 1e-3 (YAML 1.2).

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

from .errors import ValidationError
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
_LN2 = math.log(2.0)

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


def _field_error(path: str, field: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: field {field!r}: {message}")


def _number_list(path: str, field: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _field_error(path, field, "expected a non-empty list of numbers")
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise _field_error(path, field, f"entry {i} is not a number: {entry!r}")
        out.append(float(entry))
    return out


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
        raise ValidationError(
            f"{path}: unknown field(s) {unknown}; allowed: {sorted(_ALLOWED_FIELDS)}"
        )
    for field in ("px", "distortion"):
        if field not in doc:
            raise _field_error(path, field, "missing required field")

    px_values = _number_list(path, "px", doc["px"])
    try:
        px = Pmf(px_values)
    except ValidationError as exc:
        raise _field_error(path, "px", str(exc)) from exc

    dist_doc = doc["distortion"]
    if isinstance(dist_doc, str):
        if dist_doc != "hamming":
            raise _field_error(path, "distortion",
                               f"unknown named matrix {dist_doc!r} (only 'hamming')")
        distortion = hamming_distortion(px.n)
    elif isinstance(dist_doc, list):
        rows = [_number_list(path, f"distortion[{i}]", row)
                for i, row in enumerate(dist_doc)]
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise _field_error(path, "distortion", "rows have unequal lengths")
        distortion = np.array(rows)
    else:
        raise _field_error(path, "distortion",
                           "expected 'hamming' or a list of rows")

    labels = None
    if "labels" in doc:
        raw = doc["labels"]
        if (not isinstance(raw, list)
                or not all(isinstance(s, str) for s in raw)):
            raise _field_error(path, "labels", "expected a list of strings")
        if len(raw) != px.n:
            raise _field_error(path, "labels",
                               f"{len(raw)} labels for {px.n} source symbols")
        labels = tuple(raw)

    for field in ("name", "description"):
        if field in doc and not isinstance(doc[field], str):
            raise _field_error(path, field, "expected a string")

    try:
        problem = SourceProblem(px=px, distortion=distortion)
    except ValidationError as exc:
        raise _field_error(path, "distortion", str(exc)) from exc

    return LoadedProblem(
        path=path,
        name=doc.get("name"),
        description=doc.get("description"),
        labels=labels,
        problem=problem,
    )


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


def jsonable(obj, nat_keys: frozenset = frozenset()):
    """Recursively convert to JSON-friendly types with rounded floats.

    Floats under a key in ``nat_keys``, at any depth, are converted to bits
    (divided by ln 2) as they are rounded; the library stays in nats.
    """
    def walk(obj, unit: float):
        if isinstance(obj, dict):
            return {str(k): walk(v, _LN2 if k in nat_keys else unit) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v, unit) for v in obj]
        if isinstance(obj, np.ndarray):
            return [walk(v, unit) for v in obj.tolist()]
        if isinstance(obj, (bool, np.bool_)):
            return bool(obj)
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            # x / 1.0 is x exactly, so a report in nats keeps every bit.
            return round_sig(float(obj) / unit)
        return obj

    return walk(obj, 1.0)


def dump_report(report: dict, nat_keys: frozenset = frozenset()) -> str:
    """The report as sorted-key JSON; see ``jsonable`` for ``nat_keys``."""
    return json.dumps(jsonable(report, nat_keys), indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{round_sig(float(value)):.{REPORT_DIGITS}g}"
    return str(value)


def render_table(header: list[str], rows: list[list]) -> str:
    """Tab-separated table with a header row; floats at report precision."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
