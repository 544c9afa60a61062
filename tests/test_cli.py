import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import semicayley as sc
from semicayley import ValidationError
from semicayley.cli import main, parse_graph, parse_time, render_text, run


def test_parse_time_forms():
    value, mult = parse_time("1/2 pi")
    assert abs(value - math.pi / 2) < 1e-12 and str(mult) == "1/2"
    value, mult = parse_time("pi")
    assert abs(value - math.pi) < 1e-12 and mult == 1
    value, mult = parse_time("3/4pi")
    assert abs(value - 3 * math.pi / 4) < 1e-12
    value, mult = parse_time("2 pi")
    assert abs(value - 2 * math.pi) < 1e-12
    value, mult = parse_time("0.75")
    assert value == 0.75 and mult is None
    value, mult = parse_time(1.5)
    assert value == 1.5 and mult is None
    with pytest.raises(ValidationError):
        parse_time("two pi")
    for infinite in ("inf", "nan", f"{10**400} pi", 10**400):
        with pytest.raises(ValidationError, match="not a finite float"):
            parse_time(infinite)


def test_parse_graph_sources(capsys):
    spec = parse_graph({"family": "sunlet", "n": 4})
    assert spec.group.factors == (4,)
    spec = parse_graph({"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]})
    assert len(spec.R) == 1
    spec = parse_graph(
        {"cayley_index2": {"H": {"factors": [3]}, "sigma": "inversion", "T1": [], "T2": [[0], [1], [2]]}}
    )
    assert spec.S == spec.group.subset(spec.group.elements())
    with pytest.raises(ValidationError):
        parse_graph({"family": "moebius", "n": 4})
    assert main(["period", "--graph", "not json"]) == 1
    assert "flag --graph expects JSON" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_run_sunlet_pst_find():
    report, code = run({"graph": {"family": "sunlet", "n": 4}, "command": "pst-find"})
    assert code == 0
    assert report["pst_found"] is False
    assert report["summary"]["yes"] == 0
    assert report["summary"] == {"yes": 0, "no": len(report["verdicts"])}
    assert report["periodicity"]["periodic"] is False


def test_run_dihedral_period():
    report, code = run({"graph": {"family": "dihedral-full-coset", "A": [4]}, "command": "period"})
    assert code == 0
    assert report["periodicity"]["periodic"] is True
    assert report["periodicity"]["min_period_pi_multiple"] == "1/2"


def test_run_pst_check_c4():
    config = {
        "graph": {"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]},
        "command": "pst-check",
        "from": [[0], 0],
        "to": [[1], 1],
        "time": "1/2 pi",
    }
    report, code = run(config)
    assert code == 0
    assert report["pass"] is True
    assert abs(report["magnitude"] - 1.0) < 1e-9
    assert report["time"]["pi_multiple"] == "1/2"


def test_run_pst_check_decider_mode():
    config = {
        "graph": {"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]},
        "command": "pst-check",
        "from": [[0], 0],
        "to": [[1], 1],
    }
    report, code = run(config)
    assert code == 0
    assert report["verdict"]["status"] == "yes"
    assert report["verdict"]["time"]["pi_multiple"] == "1/2"


def _full_matrix(report):
    # H(t) as a 2n x 2n complex matrix from the report's rows: entry (g, r),
    # (h, s) is rows[r][s][index(g^-1 h)], elements in enumeration order
    factors = report["graph"]["group"]["factors"]
    elements = list(itertools.product(*map(range, factors)))
    index = {g: k for k, g in enumerate(elements)}
    rows = [[[complex(value["re"], value["im"]) for value in row] for row in pair] for pair in report["rows"]]
    return np.array([
        [rows[r][s][index[tuple((y - x) % f for x, y, f in zip(g, h, factors))]] for s in (0, 1) for h in elements]
        for r in (0, 1) for g in elements
    ])


def test_run_spectrum_and_evolve():
    q1 = {"family": "hypercube", "n": 1}
    report, code = run({"graph": q1, "command": "spectrum"})
    assert code == 0
    assert report["integral"] is True and report["eigen_gcd"] == 2
    report, code = run({"graph": q1, "command": "evolve", "time": 0.0})
    assert code == 0
    entries = _full_matrix(report)
    assert entries[0][0].real == 1.0 and abs(entries[0][1].real) < 1e-12
    report, code = run(
        {"graph": q1, "command": "evolve", "time": "1/2 pi", "from": [[0], 0], "to": [[0], 1]}
    )
    assert code == 0
    assert abs(report["magnitude"] - 1.0) < 1e-12


def test_exit_codes_and_errors():
    report, code = run({"graph": {"family": "sunlet", "n": 2}, "command": "spectrum"})
    assert code == 1 and report["error"]["kind"] == "validation"
    report, code = run({"graph": {"family": "sunlet", "n": 4}, "command": "fly"})
    assert code == 1
    report, code = run({"command": "spectrum"})
    assert code == 1 and report["error"]["message"] == "missing field 'graph'"
    report, code = run({"graph": {"family": "sunlet", "n": 4}, "command": "evolve"})
    assert code == 1  # missing time


_C4 = {"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]}


@pytest.mark.parametrize(
    "config",
    [
        {"command": "spectrum", "graph": {"family": "sunlet"}},
        {"command": "spectrum", "graph": {"family": "sunlet", "n": "abc"}},
        {"command": "spectrum", "graph": {"family": "dihedral"}},
        {"command": "spectrum", "graph": {"family": "join"}},
        *({"command": "pst-check", "graph": _C4, "from": [[0], 0], "to": [[1], 1], "time": "1/2 pi",
           "tolerance": tol} for tol in ("abc", "nan", "inf", 2, 1, -1e-9)),
        {"command": "pst-check", "graph": _C4, "from": [["a"], 0], "to": [[1], 1]},
        {"command": "pst-check", "graph": _C4, "from": [5, 0], "to": [[1], 1]},
        {"command": "pst-check", "graph": _C4, "from": [[0], "x"], "to": [[1], 1]},
        {"command": "spectrum", "graph": {"group": {"factors": ["x"]}, "R": [], "L": [], "S": []}},
        {"command": "spectrum", "graph": {"family": "dihedral-full-coset", "A": ["x"]}},
        {"command": "spectrum", "graph": {"cayley_index2": {"H": {"factors": [3]}, "sigma": [[[0], [0]], [[1], [2]]]}}},
        # JSON booleans are not integers or numbers, although True == 1 in Python
        {"command": "spectrum", "graph": {"family": "hypercube", "n": True}},
        {"command": "spectrum", "graph": {"group": {"factors": [True, 2]}, "R": [], "L": [], "S": []}},
        {"command": "spectrum", "graph": {"group": {"factors": [2]}, "R": [], "L": [], "S": [[True]]}},
        {"command": "pst-check", "graph": _C4, "from": [[0], False], "to": [[1], 1]},
        {"command": "pst-check", "graph": _C4, "from": [[False], 0], "to": [[1], 1]},
        {"command": "evolve", "graph": _C4, "time": True},
        {"command": "pst-check", "graph": _C4, "from": [[0], 0], "to": [[1], 1], "time": "1/2 pi",
         "tolerance": False},
        # an order of 2^(10^12 - 1), refused before anything of that size is built
        {"command": "spectrum", "graph": {"family": "hypercube", "n": 10**12}},
        {"command": "evolve", "graph": _C4, "time": "1/0 pi"},
        {"command": "spectrum", "graph": [_C4]},
        {"command": "spectrum", "graph": {"R": [], "L": [], "S": []}},
        {"command": "spectrum", "graph": {"cayley_index2": {"H": {"factors": [3]}, "sigma": "bogus"}}},
        {"command": "evolve", "graph": _C4, "time": "1/2 pi", "from": [[0], 0]},
        {"command": "pst-check", "graph": _C4, "from": [[0], 0]},
    ],
)
def test_malformed_input_is_a_validation_error(config):
    report, code = run(config)
    assert code == 1 and report["error"]["kind"] == "validation", report
    assert report["error"]["message"] != "missing field 'graph'"  # refused for its own fault


@pytest.mark.parametrize(
    "config, named",
    [
        ({"command": "spectrum", "graph": {"family": "sunlet", "n": 4.7}}, "field 'n'"),
        ({"command": "spectrum", "graph": {"group": {"factors": [2.9]}, "R": [], "L": [], "S": [[0.6]]}},
         "cyclic factor sizes"),
        ({"command": "spectrum", "graph": {"group": {"factors": [2]}, "R": [], "L": [], "S": [[0.6]]}},
         "element [0.6]"),
        ({"command": "pst-check", "graph": _C4, "from": [[0.9], 0], "to": [[0], 1.5]}, "vertex"),
    ],
    ids=["family-size", "group-factor", "subset-element", "vertex"],
)
def test_non_integer_numbers_are_rejected_not_truncated(config, named):
    # int() would truncate each of these to a valid input and answer for it
    report, code = run(config)
    assert code == 1 and report["error"]["kind"] == "validation", report
    assert named in report["error"]["message"]


@pytest.mark.parametrize("subset", ["R", "L", "S"])
@pytest.mark.parametrize(
    "element, complaint",
    [([0.6], "element [0.6] must be a list of integer exponents"), ([5], "element [5] out of range")],
    ids=["non-integer", "out-of-range"],
)
def test_element_errors_name_their_subset(subset, element, complaint):
    graph = {"group": {"factors": [2]}, "R": [], "L": [], "S": []}
    graph[subset] = [element]
    report, code = run({"command": "spectrum", "graph": graph})
    assert code == 1 and report["error"]["kind"] == "validation", report
    assert report["error"]["message"].startswith(f"{subset}: {complaint}")


def test_tolerance_is_read_only_by_pst_check():
    report, code = run({"command": "period", "graph": _C4, "tolerance": "abc"})
    assert code == 0 and report["periodicity"]["periodic"] is True


def test_main_prints_the_validation_error(capsys):
    code = main(["spectrum", "--graph", '{"family": "sunlet", "n": "abc"}'])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "validation" and "'n'" in error["message"]


def test_pst_check_reduces_large_times_exactly():
    # the 3-cube's spectrum is integral, so H(t + 2 pi) = H(t); its antipodal
    # entry is (-i sin t)^3, one factor per coordinate of the cube
    q3 = {"command": "pst-check", "graph": {"family": "hypercube", "n": 3},
          "from": [[0, 0], 0], "to": [[1, 1], 1]}
    report, code = run(dict(q3, time="100000000 pi"))  # = 0 modulo 2 pi
    assert code == 0 and report["pass"] is False and report["magnitude"] < 1e-12
    report, code = run(dict(q3, time="200000001/2 pi"))  # = pi/2 modulo 2 pi
    assert code == 0 and report["pass"] is True
    # 1e9 modulo 2 pi from a pi of 60 digits, independent of the package's own
    pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
    turns = Fraction(10**9) / (2 * pi)
    reduced = float(Fraction(10**9) - (turns.numerator // turns.denominator) * 2 * pi)
    report, code = run(dict(q3, time="1e9"))
    assert code == 0 and report["time"] == {"value": 1e9, "pi_multiple": None}
    for key in ("magnitude_spectral", "magnitude_oracle"):
        assert abs(report[key] - abs(math.sin(reduced)) ** 3) < 1e-12


def test_evolve_reduces_large_times_exactly():
    # hypercube(9) is integral, so H(100000000 pi) = H(0) = I: the antipodal
    # entry is exactly 0 and the whole matrix is the identity
    q9 = {"command": "evolve", "graph": {"family": "hypercube", "n": 9}, "time": "100000000 pi",
          "from": [[0] * 8, 0], "to": [[1] * 8, 1]}
    report, code = run(q9)
    assert code == 0 and report["magnitude"] < 1e-12
    assert report["time"] == {"value": 1e8 * math.pi, "pi_multiple": "100000000"}
    report, code = run({"command": "evolve", "graph": {"family": "hypercube", "n": 3}, "time": "100000001 pi"})
    assert code == 0 and report["time"]["pi_multiple"] == "100000001"
    # (-i sin pi)^3 = 0 off the diagonal and (cos pi)^3 = -1 on it, coordinate by coordinate
    entries = _full_matrix(report)
    diagonal = np.diag(np.diag(entries))
    assert np.max(np.abs(entries - diagonal)) < 1e-12
    assert np.max(np.abs(np.diag(entries) + 1)) < 1e-12
    # H(-t) is the conjugate of H(t), so a large negative decimal time must
    # reduce as accurately as its positive twin, off and on the diagonal
    for time, target in (("100000000.3", [[1] * 8, 1]), ("123456789.123", [[0] * 8, 0])):
        entry = dict(q9, to=target)
        plus, _ = run(dict(entry, time=time))
        minus, code = run(dict(entry, time="-" + time))
        assert code == 0 and abs(minus["magnitude"] - plus["magnitude"]) < 1e-12, (time, minus, plus)


def test_full_matrix_evolve_report_is_linear_in_n():
    # H(t) is printed as its 4n values, so the report grows like n, not n^2:
    # the bytes per group element of hypercube(3..9) (n = 4 .. 256) stay in one band
    per_element = []
    for k in range(3, 10):
        report, code = run({"command": "evolve", "graph": {"family": "hypercube", "n": k}, "time": "1/3 pi"})
        assert code == 0
        per_element.append(len(json.dumps(report, indent=2, sort_keys=True)) / 2 ** (k - 1))
    assert max(per_element) < 1.5 * min(per_element), per_element


def test_pst_check_beyond_the_horizon_is_a_validation_error():
    # sunlet(4) is not integral: no exact period, and t * rho = 3e9 > 1e6
    report, code = run({"command": "pst-check", "graph": {"family": "sunlet", "n": 4},
                        "from": [[0], 0], "to": [[2], 0], "time": "1e9"})
    assert code == 1 and report["error"]["kind"] == "validation"
    assert "horizon" in report["error"]["message"]


def test_evolve_refuses_the_pst_check_horizon_without_an_exact_period():
    # cone(5) is not integral and rho = 7: t = 1e17 is far past the horizon,
    # where evolve would print noise; the refusal is pst-check's, word for word
    entry = {"graph": {"family": "cone", "n": 5}, "from": [[0], 0], "to": [[1], 0]}
    refused, code = run(dict(entry, command="evolve", time="1e17"))
    assert code == 1 and refused["error"]["kind"] == "validation"
    assert refused == run(dict(entry, command="pst-check", time="1e17"))[0]
    assert run({"command": "evolve", "graph": entry["graph"], "time": "1e17"})[1] == 1
    # t * rho = 999999, just inside: the entry of a dense eigendecomposition
    t = 999999 / 7
    report, code = run(dict(entry, command="evolve", time=str(t)))
    vals, vecs = np.linalg.eigh(parse_graph(entry["graph"]).adjacency)
    expected = (vecs[0] * np.exp(-1j * t * vals)) @ vecs[1]  # rows 0 and 1: [[0], 0] and [[1], 0]
    assert code == 0
    assert abs(complex(report["entry"]["re"], report["entry"]["im"]) - expected) < 1e-9


def test_graph_json_round_trip():
    report, _ = run({"graph": {"family": "sunlet", "n": 4}, "command": "period"})
    emitted = report["graph"]
    spec = parse_graph(emitted)
    assert spec.to_json() == emitted
    # the families with group and subset fields report the library constructor's graph
    z4, t1 = sc.AbelianGroup([4]), [(1,), (3,)]
    families = [
        ({"family": "join", "group": {"factors": [5]}, "R": [[1], [4]], "L": []},
         sc.join_spec(sc.AbelianGroup([5]), [(1,), (4,)], [])),
        ({"family": "dihedral", "A": [4], "T1": [[1], [3]], "T2": [[0]]},
         sc.generalized_dihedral(z4, t1, [(0,)])),
        ({"family": "dicyclic", "A": [4], "y": [2], "T1": [[1], [3]], "T2": [[1], [3]]},
         sc.generalized_dicyclic(z4, (2,), t1, t1)),
    ]
    for family, spec in families:
        report, code = run({"command": "period", "graph": family})
        assert code == 0 and report["graph"] == spec.to_json(), family


def test_sigma_pair_list_is_the_named_action():
    inversion = [[[0], [0]], [[1], [3]], [[2], [2]], [[3], [1]]]  # g -> -g on Z_4
    reports = []
    for sigma in (inversion, "inversion"):
        index2 = {"H": {"factors": [4]}, "sigma": sigma, "T1": [[1], [3]], "T2": [[0]]}
        report, code = run({"command": "pst-find", "graph": {"cayley_index2": index2}})
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["summary"] == {"yes": 2, "no": 12}
    # a pair list must cover the subgroup: Z_3 with two pairs
    index2 = {"H": {"factors": [3]}, "sigma": [[[0], [0]], [[1], [2]]]}
    report, code = run({"command": "spectrum", "graph": {"cayley_index2": index2}})
    assert code == 1 and report["error"]["message"] == "x-action pair list must map every element of the subgroup"


@pytest.mark.parametrize("sigma", ["identity", None], ids=["identity", "absent"])
def test_identity_sigma_is_the_abelian_extension(sigma):
    # x acts trivially with x^2 = e: Cay(Z_4 x Z_2, {(+-1, 0), (0, 1)}) = C_4 x K_2,
    # the 3-cube, whose antipodal pairs exchange at pi/2
    index2 = {"H": {"factors": [4]}, "T1": [[1], [3]], "T2": [[0]]}
    if sigma is not None:
        index2["sigma"] = sigma
    report, code = run({"command": "pst-find", "graph": {"cayley_index2": index2}})
    z4 = sc.AbelianGroup([4])
    graph = sc.abelian_index2(z4, (0,), [(1,), (3,)], [(0,)]).to_json()
    assert code == 0 and report == run({"command": "pst-find", "graph": graph})[0]
    assert report["summary"]["yes"] == 2


def test_render_text_prints_exact_eigenvalues_as_integers():
    # cone(4) has chi(S) = 0 at chi[1], where the float of lambda+ is -1.2e-16
    report, code = run({"command": "spectrum", "graph": {"family": "cone", "n": 4}})
    assert code == 0
    lines = render_text(report).splitlines()
    rows = report["spectrum"]["characters"]
    assert rows[1]["exact"] and rows[1]["lambda_plus"] != 0 and rows[1]["lambda_plus_exact"] == 0
    assert "  chi[1]: lambda+ = 0, lambda- = 0 (exact)" in lines
    for row in rows:
        if row["exact"]:
            want = f"lambda+ = {row['lambda_plus_exact']}, lambda- = {row['lambda_minus_exact']} (exact)"
        else:
            want = f"lambda+ = {row['lambda_plus']:.12g}, lambda- = {row['lambda_minus']:.12g} (float)"
        assert f"  chi{row['char_index']}: {want}" in lines


def test_reports_are_byte_identical():
    config = {"graph": {"family": "sunlet", "n": 5}, "command": "pst-find"}
    first, _ = run(config)
    second, _ = run(config)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_main_json_and_text(capsys):
    code = main(["pst-find", "--graph", '{"family": "sunlet", "n": 4}'])
    assert code == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["pst_found"] is False

    code = main(["period", "--graph", '{"family": "dihedral-full-coset", "A": [4]}', "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "periodic: yes" in out and "1/2 pi" in out

    code = main(["spectrum", "--graph", '{"family": "sunlet", "n": 2}'])
    assert code == 1


def test_main_config_file(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps({"graph": {"family": "sunlet", "n": 4}, "command": "pst-find"}))
    code = main(["--config", str(config_path)])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "pst-find"
    # explicit command overrides the config's command
    code = main(["period", "--config", str(config_path)])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "period"


def test_main_reads_json_flags_and_the_graph_field(tmp_path, capsys):
    def error(argv):
        code = main(argv)
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert code == 1
        return message

    c4 = '{"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]}'
    assert error(["pst-check", "--graph", c4, "--from", "[[0],", "--to", "[[1],1]"]).startswith(
        "flag --from expects JSON"
    )
    assert error(["pst-check", "--graph", c4, "--from", "[[0],0]", "--to", "[[1],"]).startswith(
        "flag --to expects JSON"
    )
    # a config holds its graph only under `graph`: top-level graph keys are not read
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps({"family": "sunlet", "n": 4, "command": "pst-find"}))
    assert error(["--config", str(config_path)]) == "missing field 'graph'"


@pytest.mark.parametrize(
    "argv",
    [["period", "--bogus"], ["frobnicate"], ["period", "--graph", '{"family": "cone", "n": 4}', "--tol", "x"],
     ["period", "--family", "cone", "--n", "4"],
     # a flag is read only when spelled in full
     ["period", "--gra", '{"family": "cone", "n": 4}'],
     ["period", "--graph", '{"family": "cone", "n": 4}', "--fo", "text"]],
    ids=["unknown-flag", "unknown-command", "non-float-tol", "retired-family-flag", "flag-prefix-gra",
         "flag-prefix-fo"],
)
def test_usage_errors_are_validation_errors(argv, capsys):
    # argparse exits 2 on a usage error, but 2 is reserved for internal-consistency errors
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "validation"


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config file"), ("{", "malformed config JSON"), ("[]", "config file must hold a JSON object"),
     ('{"command": "period", "graph": {"family": "cone", "n": 4}, "format": "xml"}', "unknown format 'xml'")],
    ids=["unreadable", "malformed", "not-an-object", "unknown-format"],
)
def test_bad_config_files_are_validation_errors(content, message, tmp_path, capsys):
    config_path = tmp_path / "job.json"
    if content is not None:  # else the file does not exist
        config_path.write_text(content)
    assert main(["--config", str(config_path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "validation" and error["message"].startswith(message), error


def test_render_text_prints_an_error_report(capsys):
    assert main(["spectrum", "--graph", '{"family": "sunlet", "n": "abc"}', "--format", "text"]) == 1
    assert capsys.readouterr().out.startswith("error (validation): field 'n'")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0 and "--graph" in capsys.readouterr().out


def test_render_text_verdicts():
    report, _ = run(
        {
            "graph": {"group": {"factors": [2]}, "R": [[1]], "L": [[1]], "S": [[0]]},
            "command": "pst-find",
        }
    )
    text = render_text(report)
    assert "PST [[0], 0] -> [[1], 1] at t = 1/2 pi" in text
    assert "summary:" in text


def test_consistency_error_maps_to_exit_2(monkeypatch):
    from semicayley import ConsistencyError
    from semicayley import cli as cli_module

    def explode(spec, **kwargs):
        raise ConsistencyError("paths disagree")

    monkeypatch.setattr(cli_module, "find_pst", explode)
    report, code = run({"graph": {"family": "sunlet", "n": 4}, "command": "pst-find"})
    assert code == 2
    assert report["error"]["kind"] == "internal-consistency"


def test_format_from_config(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    config_path.write_text(
        json.dumps({"graph": {"family": "sunlet", "n": 5}, "command": "period", "format": "text"})
    )
    code = main(["--config", str(config_path)])
    assert code == 0
    out = capsys.readouterr().out
    # 1 +- sqrt(2) at the trivial character: aperiodic by the theorem
    assert "periodic: no (theorem)" in out
    # the flag still wins over the config field
    code = main(["--config", str(config_path), "--format", "json"])
    assert code == 0
    json.loads(capsys.readouterr().out)
