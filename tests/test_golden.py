"""Every CLI output of the golden matrix stays byte for byte what it was.

tests/make_golden.py runs the matrix (verify, export-code, verify --code,
sweep A/B/C under three noise models, one spectrum) through `cli.main` and
is the only writer of tests/golden/.  Here the matrix is rerun into a
temporary directory and compared with it:

- every output's sha256, including stdout, stderr and the exit code, when
  this machine matches tests/golden/platform.json (numpy version, system,
  machine and a BLAS product probe); elsewhere that check skips and says why,
  because another BLAS may move the last bit of a float;
- the small outputs kept verbatim, exactly on the recorded platform and
  otherwise numerically: the text between the numbers must agree and each
  number within 4 ulp of the larger magnitude, taken as at least 1.0, since
  the small numbers here are deviations, errors and amplitudes of unit-scale
  quantities.
"""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_golden import GOLDEN, commands, is_small, platform_key, run_matrix, sha256  # noqa: E402

ULPS = 4
RECORDED = json.loads((GOLDEN / "platform.json").read_text())
SAME_PLATFORM = platform_key() == RECORDED
HASHES = dict(line.split("  ")[::-1] for line in (GOLDEN / "SHA256SUMS").read_text().splitlines())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_matrix(tmp_path_factory.mktemp("golden"))


def test_matrix_writes_the_recorded_outputs(outputs):
    assert sorted(outputs) == sorted(HASHES)


@pytest.mark.skipif(
    not SAME_PLATFORM,
    reason=f"exact hashes were recorded on {RECORDED}, this machine is {platform_key()}",
)
def test_every_output_is_byte_identical(outputs):
    changed = sorted(name for name, data in outputs.items() if HASHES.get(name) != sha256(data))
    assert changed == []


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\bNaN\b|-?\binf\b|-?\bInfinity\b")


def assert_close_text(got: str, want: str) -> None:
    """`got` equals `want` up to each number moving by ULPS ulp (see the module doc)."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        a, b = float(g), float(w)
        if math.isnan(a) and math.isnan(b):
            continue
        assert abs(a - b) <= ULPS * np.spacing(max(abs(a), abs(b), 1.0)), f"{g} != {w}"


@pytest.mark.parametrize("command", list(commands(Path("."))))
def test_small_outputs_match_their_verbatim_copies(outputs, command):
    names = [name for name in outputs if name.startswith(f"{command}/") and is_small(name)]
    assert names
    for name in names:
        got, want = outputs[name].decode(), (GOLDEN / name).read_text()
        if SAME_PLATFORM:
            assert got == want, name
        else:
            assert_close_text(got, want)


@pytest.mark.parametrize(
    "got, want, close",
    [
        ('{"a": 0.5, "b": [1, 2]}', '{"a": 0.5, "b": [1, 2]}', True),
        ("alpha 0.30000000000000004", "alpha 0.3", True),
        ("x 1.0000000000000009", "x 1", True),
        ("x 1.0000000000000013", "x 1", False),
        ("max deviation 4.441e-16", "max deviation 2.220e-16", True),
        ("max deviation 1.0e-14", "max deviation 0.000e+00", False),
        ("Theta nan", "Theta nan", True),
        ("Theta nan", "Theta 0.5", False),
        ("d = 3, witness X1 X2", "d = 2, witness X1 X2", False),
        ("PASS (1.0)", "FAIL (1.0)", False),
    ],
)
def test_close_text_comparison(got, want, close):
    if close:
        assert_close_text(got, want)
    else:
        with pytest.raises(AssertionError):
            assert_close_text(got, want)
