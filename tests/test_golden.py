"""Golden reports: fixed CLI configs must keep giving the recorded reports.

golden_reports.json holds about twenty configs covering all five commands
(the same-layer verdicts of an R != L graph, a validation error, pst-check
with and without a time, evolve for one entry and for the whole matrix,
which is reported as its 2 x 2 x n rows), each with the exit code and the
report the CLI gave when it was recorded.  Exact fields must be equal;
floats must agree within 1e-12.

After a deliberate change to a report, re-record the cases it changes with
`PYTHONPATH=src python tests/test_golden.py 0 6` (case indices), or every
case with no argument.
"""

import json
import os
import sys

import pytest

from semicayley.cli import run

DATA = os.path.join(os.path.dirname(__file__), "golden_reports.json")
FLOAT_TOL = 1e-12

CONFIGS = [
    {"command": "spectrum", "graph": {"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]}},
    {"command": "spectrum", "graph": {"family": "cone", "n": 5}},
    {"command": "spectrum", "graph": {"group": {"factors": [5]}, "R": [[1], [4]], "L": [[2], [3]], "S": [[4]]}},
    {"command": "spectrum", "graph": {"family": "dicyclic-full-coset", "A": [4], "y": [2]}},
    {"command": "evolve", "graph": {"family": "hypercube", "n": 3}, "time": "1/2 pi",
     "from": [[0, 0], 0], "to": [[1, 1], 1]},
    {"command": "evolve", "graph": {"family": "sunlet", "n": 4}, "time": "0.7",
     "from": [[0], 0], "to": [[1], 1]},
    {"command": "evolve", "graph": {"family": "hypercube", "n": 2}, "time": "1/3 pi"},
    {"command": "pst-check", "graph": {"family": "hypercube", "n": 3},
     "from": [[0, 0], 0], "to": [[1, 1], 1]},
    {"command": "pst-check", "graph": {"family": "hypercube", "n": 3}, "time": "1/2 pi",
     "from": [[0, 0], 0], "to": [[1, 1], 1]},
    {"command": "pst-check", "graph": {"family": "sunlet", "n": 4}, "time": "1.3",
     "from": [[0], 0], "to": [[2], 0]},
    {"command": "pst-check", "graph": {"group": {"factors": [2, 2]}, "R": [[0, 1], [1, 0]],
                                       "L": [[1, 0], [1, 1]], "S": [[0, 0], [1, 0]]},
     "from": [[0, 0], 1], "to": [[1, 1], 1]},
    {"command": "pst-find", "graph": {"family": "hypercube", "n": 3}},
    {"command": "pst-find", "graph": {"group": {"factors": [2, 2]}, "R": [[0, 1], [1, 0]],
                                      "L": [[1, 0], [1, 1]], "S": [[0, 0], [1, 0]]}},
    {"command": "pst-find", "graph": {"family": "dihedral-full-coset", "A": [2]}},
    {"command": "pst-find", "graph": {"family": "dihedral-involutions", "A": [4]}},
    {"command": "pst-find", "graph": {"cayley_index2": {"H": {"factors": [4]}, "sigma": "inversion",
                                                        "T1": [[1], [3]], "T2": [[0]]}}},
    {"command": "period", "graph": {"family": "cone", "n": 6}},
    {"command": "period", "graph": {"group": {"factors": [5]}, "R": [[1], [4]], "L": [[2], [3]], "S": [[4]]}},
    {"command": "period", "graph": {"family": "hypercube", "n": 4}},
    {"command": "period", "graph": {"group": {"factors": [3]}, "R": [], "L": [], "S": []}},
    {"command": "spectrum", "graph": {"group": {"factors": [3]}, "R": [[0]], "L": [], "S": []}},
    {"command": "pst-check", "graph": {"family": "sunlet", "n": 4}, "from": [[0], 0], "to": [[0], 0]},
]


def _report(config: dict) -> dict:
    report, code = run(json.loads(json.dumps(config)))
    return {"config": config, "exit_code": code, "report": json.loads(json.dumps(report))}


def _assert_matches(got, want, path="report"):
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} vs {want!r}"
        return
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} vs {sorted(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def _golden() -> list[dict]:
    with open(DATA, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_configs_cover_every_command():
    golden = _golden()
    assert [entry["config"] for entry in golden] == CONFIGS
    assert {entry["config"]["command"] for entry in golden} == {
        "spectrum", "evolve", "pst-check", "pst-find", "period"}
    assert {entry["exit_code"] for entry in golden} == {0, 1}


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_golden_report(index):
    want = _golden()[index]
    got = _report(want["config"])
    assert got["exit_code"] == want["exit_code"]
    _assert_matches(got["report"], want["report"])


if __name__ == "__main__":
    # with case indices as arguments only those cases are re-recorded
    chosen = {int(arg) for arg in sys.argv[1:]} or set(range(len(CONFIGS)))
    kept = _golden() if sys.argv[1:] else [None] * len(CONFIGS)
    entries = [_report(config) if i in chosen else kept[i] for i, config in enumerate(CONFIGS)]
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
