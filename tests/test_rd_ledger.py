"""Pin the bits of solved rate-distortion points.

Each line of ``tests/golden/rd_ledger.txt`` is one point: criterion 2's 50
random draws (``default_rng(0)``, as in ``test_acceptance.py``), each with
its reconstruction columns rotated 0, 1 and 2 steps as the ``rd_scatter``
benchmark solves them, then the skewA grid 0.025-0.575 at tol 1e-10.  A
line holds the rate, slope and achieved distortion by ``float.hex``, the
kept columns, ``ba_iterations``, ``prune_rounds`` and SHA-256 prefixes of
the bytes of the forward rows and of the tilted vector that
``tilted_information`` forms, so a change that moves any float of a point,
by even one ulp, fails here.  The header
records the numpy version the file was made with and is not compared.  A
change that moves a line on purpose regenerates the file with

    PYTHONPATH=src python tests/test_rd_ledger.py

and names every moved line in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np

from loglosslab import (Pmf, SourceProblem, distortion_bounds, hamming_distortion, rd_at_distortion,
                        tilted_information)

LEDGER = Path(__file__).resolve().parent / "golden" / "rd_ledger.txt"
TOL = 1e-10
DRAWS = 50
ROTATIONS = 3
SKEW_A = SourceProblem(px=Pmf([0.4, 0.3, 0.2, 0.1]), distortion=hamming_distortion(4))
SKEW_A_GRID = tuple(round(0.025 * i, 3) for i in range(1, 24))


def _cases():
    """(label, problem, target) of every ledger point, in ledger order."""
    rng = np.random.default_rng(0)
    for i in range(DRAWS):
        r = int(rng.integers(2, 7))
        s = int(rng.integers(2, 7))
        weights = rng.random(r)
        px = Pmf(weights / weights.sum())
        dist = rng.random((r, s))
        d_min, d_max = distortion_bounds(SourceProblem(px=px, distortion=dist))
        target = d_min + rng.uniform(0.2, 0.8) * (d_max - d_min)
        for shift in range(ROTATIONS):
            problem = SourceProblem(px=px, distortion=np.roll(dist, shift, axis=1))
            yield f"draw{i:02d}/rot{shift}", problem, target
    for d in SKEW_A_GRID:
        yield f"skewA/{d}", SKEW_A, d


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def ledger_lines() -> list[str]:
    lines = []
    for label, problem, target in _cases():
        point = rd_at_distortion(problem, target, tol=TOL)
        diag = point.diagnostics
        cols = ",".join(str(c) for c in point.kept_columns)
        lines.append(
            f"{label} rate={point.rate.hex()} lam={point.lambda_star.hex()} "
            f"d={diag.achieved_distortion.hex()} cols={cols} it={diag.ba_iterations} "
            f"prune={diag.prune_rounds} fwd={_digest(point.forward.rows)} "
            f"tilted={_digest(tilted_information(problem, point))}\n")
    return lines


def test_rd_ledger_matches_golden():
    header, *golden = LEDGER.read_text().splitlines(keepends=True)
    lines = ledger_lines()
    assert len(lines) == len(golden)
    moved = [f"{old.split()[0]}:\n  ledger  {old}  now     {new}"
             for old, new in zip(golden, lines) if old != new]
    assert not moved, (f"{len(moved)} points moved (ledger made with numpy {header.split()[-1]}, "
                       f"running numpy {np.__version__}):\n" + "".join(moved[:5]))


if __name__ == "__main__":
    LEDGER.write_text(f"# rd ledger, numpy {np.__version__}\n" + "".join(ledger_lines()))
