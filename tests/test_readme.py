"""The README's library tour runs as written and shows what its comments say."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(compile(tour, str(README), "exec"), names)
    h_b = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
    assert abs(names["point"].rate - (math.log(2) - h_b)) < 1e-9
    assert abs(names["point"].lambda_star - math.log(9)) < 1e-6
    sweep = names["sweep"]
    assert not sweep.sampled and sweep.n_codes == 72 and sweep.max_residual < 1e-12
    assert abs(names["sr"].delta - (0.5 - h_b) / (math.log(2) - h_b)) < 1e-9
    assert abs(names["report"].empirical_loss - math.log(2)) < 0.01
