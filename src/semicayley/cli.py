"""Command-line front end.

Commands: spectrum | evolve | pst-check | pst-find | period.  A job is one
config object: a --config file (which may also name the command) whose fields
the flags override.  Its `graph` (or --graph) is an inline JSON spec, a named
family or an index-2 Cayley description.  Reports are deterministic: identical
configs produce byte-identical JSON.  Times are carried as exact rational
multiples of pi wherever they are exact; floats are derived fields.

Each field is printed in the form the computation has, so a report grows
linearly with the group order n:

* `spectrum` gives chi(S) of each character as its nonzero terms,
  chi(S) = sum of coefficients[k] * zeta_N^exponents[k], exponents ascending
  (at most min(|S|, N) terms), plus its float `re`, `im`;
* `evolve` without `from`/`to` gives H(t) as `rows`, the 2 x 2 x n values
  rows[r][s][k] = H_(e,r),(g_k,s)(t) with g_k the k-th element in
  enumeration order; entry (g, r), (h, s) is rows[r][s][index(g^-1 h)].

Exit codes: 0 success, 1 validation error, 2 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .groups import AbelianGroup, integer
from .graphs import (
    SemiCayleySpec,
    Vertex,
    cone,
    dicyclic_full_coset,
    dihedral_full_coset,
    dihedral_involutions,
    from_cayley_index2,
    generalized_dicyclic,
    generalized_dihedral,
    hypercube,
    identity_action,
    inversion,
    join_spec,
    sunlet,
)
from .pst import MAGNITUDE_TOL, decide_pair, find_pst, periodicity, reduce_time, time_json, verify_at_time
from .spectra import eigen_gcd
from .transfer import check_horizon, transfer_entry, transfer_rows

COMMANDS = ("spectrum", "evolve", "pst-check", "pst-find", "period")

_TIME_RE = re.compile(r"^\s*(?:(\d+)\s*(?:/\s*(\d+))?\s*\*?\s*)?pi\s*$", re.IGNORECASE)


def parse_time(expression) -> tuple[float, Fraction | None]:
    """Parse 'p/q pi' style expressions or plain decimal floats.

    Returns (seconds, pi_multiple) with pi_multiple None for decimal input.
    """
    q = None
    # a JSON number is read as is; anything else, true and false included, as text
    numeric = isinstance(expression, (int, float)) and not isinstance(expression, bool)
    text = expression if numeric else str(expression).strip()
    match = _TIME_RE.match(text) if isinstance(text, str) else None
    if match:
        num = int(match.group(1)) if match.group(1) else 1
        den = int(match.group(2)) if match.group(2) else 1
        if den == 0:
            raise ValidationError("time denominator must be nonzero")
        q = Fraction(num, den)
    try:
        value = float(q) * math.pi if q is not None else float(text)
    except OverflowError:
        value = math.inf
    except ValueError as exc:
        raise ValidationError(f"cannot parse time expression {expression!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"time {expression!r} is not a finite float")
    return value, q


def parse_vertex(spec: SemiCayleySpec, obj) -> Vertex:
    try:
        element, layer = obj
        element, layer = tuple(map(integer, element)), integer(layer)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"vertex must be [[exponents],layer], got {obj!r}") from exc
    return spec.validate_vertex(Vertex(element, layer))


def _field(obj: dict, key: str, parse, default=None):
    """parse(obj[key]), or parse(default) for an absent key; a bad field is a ValidationError naming it."""
    if not isinstance(obj, dict) or (key not in obj and default is None):
        raise ValidationError(f"missing field {key!r}")
    try:
        return parse(obj.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field {key!r}: {exc}") from exc


def _real(x) -> float:
    """float(x), refusing bool: JSON's true and false are not numbers."""
    if isinstance(x, bool):
        raise TypeError("a boolean is not a number")
    return float(x)


def _family_spec(obj: dict) -> SemiCayleySpec:
    name = obj["family"]
    if name == "sunlet":
        return sunlet(_field(obj, "n", integer))
    if name == "cone":
        return cone(_field(obj, "n", integer))
    if name == "hypercube":
        return hypercube(_field(obj, "n", integer))
    if name == "join":
        group = _field(obj, "group", AbelianGroup.from_json)
        return join_spec(group, _field(obj, "R", list, []), _field(obj, "L", list, []))
    if name == "dihedral-full-coset":
        return dihedral_full_coset(_field(obj, "A", AbelianGroup))
    if name == "dihedral-involutions":
        return dihedral_involutions(_field(obj, "A", AbelianGroup))
    if name == "dicyclic-full-coset":
        return dicyclic_full_coset(_field(obj, "A", AbelianGroup), _field(obj, "y", tuple))
    if name in ("dihedral", "dicyclic"):
        A = _field(obj, "A", AbelianGroup)
        T1, T2 = _field(obj, "T1", list, []), _field(obj, "T2", list, [])
        if name == "dihedral":
            return generalized_dihedral(A, T1, T2)
        return generalized_dicyclic(A, _field(obj, "y", tuple), T1, T2)
    raise ValidationError(f"unknown family {name!r}")


def _index2_spec(obj: dict) -> SemiCayleySpec:
    subgroup = _field(obj, "H", AbelianGroup.from_json)
    action = obj.get("sigma", "identity")
    if action == "identity":
        sigma = identity_action(subgroup)
    elif action == "inversion":
        sigma = inversion(subgroup)
    elif isinstance(action, list):
        # sources first (the last pair for a source wins), then coverage, then images in enumeration order
        pairs = _field(obj, "sigma", lambda pairs: {tuple(src): tuple(dst) for src, dst in pairs})
        images = {subgroup.index(src): dst for src, dst in pairs.items()}
        if len(images) != subgroup.order:
            raise ValidationError("x-action pair list must map every element of the subgroup")
        sigma = [subgroup.index(images[i]) for i in range(subgroup.order)]
    else:
        raise ValidationError(f"sigma must be 'identity', 'inversion' or a pair list, got {action!r}")
    return from_cayley_index2(
        subgroup, sigma, _field(obj, "x_square", tuple, subgroup.identity),
        _field(obj, "T1", list, []), _field(obj, "T2", list, []),
    )


def parse_graph(obj) -> SemiCayleySpec:
    """A config's `graph`: inline spec JSON, named family, or index-2 description."""
    if not isinstance(obj, dict):
        raise ValidationError("graph description must be a JSON object")
    if "family" in obj:
        return _family_spec(obj)
    if "cayley_index2" in obj:
        return _index2_spec(obj["cayley_index2"])
    if "group" in obj:
        return SemiCayleySpec.from_json(obj)
    raise ValidationError("graph description needs 'family', 'group' or 'cayley_index2'")


def run(config: dict) -> tuple[dict, int]:
    """Execute one job; returns (report, exit_code)."""
    try:
        report = _run_checked(config)
        return report, 0
    except ValidationError as exc:
        return {"error": {"kind": "validation", "message": str(exc)}}, 1
    except ConsistencyError as exc:
        return {"error": {"kind": "internal-consistency", "message": str(exc)}}, 2


def _run_checked(config: dict) -> dict:
    command = config.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"command must be one of {list(COMMANDS)}, got {command!r}")
    if "graph" not in config:
        raise ValidationError("missing field 'graph'")
    spec = parse_graph(config["graph"])
    report: dict = {"command": command, "graph": spec.to_json()}

    if command == "spectrum":
        report["spectrum"] = spec.spectrum.to_json()
        report["integral"] = spec.spectrum.is_integral
        try:
            report["eigen_gcd"] = eigen_gcd(spec)
        except ValidationError:  # not integral, or no gaps
            report["eigen_gcd"] = None
        return report

    if command == "evolve":
        if "time" not in config:
            raise ValidationError("evolve needs a time")
        t, pi_mult = parse_time(config["time"])
        report["t"] = t
        report["time"] = time_json(t, pi_mult)
        t = reduce_time(spec, t, pi_mult)  # exact, so large times keep their accuracy
        check_horizon(spec, t)  # the accuracy horizon of a time that could not be reduced
        if "from" in config or "to" in config:
            if not ("from" in config and "to" in config):
                raise ValidationError("evolve with a queried entry needs both 'from' and 'to'")
            u = parse_vertex(spec, config["from"])
            v = parse_vertex(spec, config["to"])
            value = transfer_entry(spec, u, v, t)
            report["entry"] = {"re": value.real, "im": value.imag}
            report["magnitude"] = abs(value)
            return report
        report["rows"] = [
            [[{"re": value.real, "im": value.imag} for value in row] for row in pair]
            for pair in transfer_rows(spec, t).tolist()
        ]
        return report

    if command == "pst-check":
        if not ("from" in config and "to" in config):
            raise ValidationError("pst-check needs 'from' and 'to' vertices")
        u = parse_vertex(spec, config["from"])
        v = parse_vertex(spec, config["to"])
        if "time" in config:
            t, pi_mult = parse_time(config["time"])
            tol = _field(config, "tolerance", _real, MAGNITUDE_TOL)
            if not 0 <= tol < 1:  # NaN fails too
                raise ValidationError(f"field 'tolerance': must be a number in [0, 1), got {tol!r}")
            check = verify_at_time(spec, u, v, reduce_time(spec, t, pi_mult), tol=tol)
            report["time"] = time_json(t, pi_mult)
            report.update(
                {
                    "from": [list(u.element), u.layer],
                    "to": [list(v.element), v.layer],
                    "magnitude": check["magnitude"],
                    "magnitude_spectral": check["magnitude_spectral"],
                    "magnitude_oracle": check["magnitude_oracle"],
                    "pass": check["pass"],
                }
            )
            return report
        if u == v:
            raise ValidationError("pst-check needs distinct vertices (or a 'period' command)")
        report["verdict"] = decide_pair(spec, u, v).to_json()
        return report

    if command == "pst-find":
        verdicts = find_pst(spec)
        report["verdicts"] = [verdict.to_json() for verdict in verdicts]
        counts = {"yes": 0, "no": 0}
        for verdict in verdicts:
            counts[verdict.status] += 1
        report["summary"] = counts
        report["pst_found"] = counts["yes"] > 0
        report["periodicity"] = periodicity(spec).to_json()
        return report

    # period
    report["periodicity"] = periodicity(spec).to_json()
    return report


def render_text(report: dict) -> str:
    """Human-readable rendering of a report."""
    lines: list[str] = []
    if "error" in report:
        err = report["error"]
        return f"error ({err['kind']}): {err['message']}"
    command = report.get("command", "?")
    lines.append(f"command: {command}")
    if "graph" in report:
        g = report["graph"]
        lines.append(
            f"graph: group factors {g['group']['factors']}, |R|={len(g['R'])}, "
            f"|L|={len(g['L'])}, |S|={len(g['S'])}"
        )
    if "spectrum" in report:
        for row in report["spectrum"]["characters"]:
            if row["exact"]:
                plus, minus, tag = row["lambda_plus_exact"], row["lambda_minus_exact"], "exact"
            else:
                plus, minus, tag = f"{row['lambda_plus']:.12g}", f"{row['lambda_minus']:.12g}", "float"
            lines.append(f"  chi{row['char_index']}: lambda+ = {plus}, lambda- = {minus} ({tag})")
        lines.append(f"integral: {report['integral']}")
        if report.get("eigen_gcd") is not None:
            lines.append(f"eigenvalue gap gcd: {report['eigen_gcd']}")
    if "magnitude" in report and command != "evolve":
        lines.append(f"magnitude: {report['magnitude']:.12g} (pass: {report['pass']})")
    if "entry" in report:
        entry = report["entry"]
        lines.append(f"entry: {entry['re']:.12g} + {entry['im']:.12g}i (|.| = {report['magnitude']:.12g})")
    if "rows" in report:
        lines.append(
            f"transfer matrix at t = {report['time']['value']:.12g}: 2 x 2 rows of {len(report['rows'][0][0])} "
            "values, H_(g,r),(h,s) = rows[r][s][index(g^-1 h)] (see JSON format)"
        )
    if "verdict" in report:
        lines.append(_verdict_line(report["verdict"]))
    if "verdicts" in report:
        for verdict in report["verdicts"]:
            lines.append(_verdict_line(verdict))
        s = report["summary"]
        lines.append(f"summary: {s['yes']} yes, {s['no']} no")
        lines.append("perfect state transfer found" if report["pst_found"] else "no perfect state transfer found")
    if "periodicity" in report:
        p = report["periodicity"]
        if p["periodic"]:
            period = f" with minimum period {p['min_period_pi_multiple']} pi" if p["min_period_pi_multiple"] else ""
            lines.append(f"periodic: yes ({p['method']}){period}")
        else:
            lines.append(f"periodic: no ({p['method']})")
    return "\n".join(lines)


def _verdict_line(verdict: dict) -> str:
    where = f"{verdict['from']} -> {verdict['to']}"
    if verdict["status"] == "yes":
        return f"  PST {where} at t = {verdict['time']['pi_multiple']} pi"
    return f"  no PST {where} ({verdict['certificate']['rule']})"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, like any validation error; 2 is for bugs
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semicayley",
        allow_abbrev=False,  # one spelling per flag: --gra is not --graph
        description="Spectra, quantum-walk transfer and perfect state transfer on semi-Cayley graphs",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="analysis to run (may come from --config)")
    parser.add_argument("--config", help="JSON job file; explicit flags override its fields")
    parser.add_argument("--graph", help="inline graph JSON (spec, family or cayley_index2 object)")
    parser.add_argument("--tol", type=float, help=f"magnitude tolerance (default {MAGNITUDE_TOL:g})")
    parser.add_argument("--time", help="time as 'p/q pi' or a decimal float")
    parser.add_argument("--from", dest="source", help="vertex [[exponents],layer]")
    parser.add_argument("--to", dest="target", help="vertex [[exponents],layer]")
    parser.add_argument("--format", choices=("json", "text"), default=None,
                        help="output format (default json; a config file may also set it)")
    return parser


def _json_flag(value: str, flag: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"flag {flag} expects JSON, got {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError("config file must hold a JSON object")
    if args.command:
        config["command"] = args.command
    if args.graph is not None:
        config["graph"] = _json_flag(args.graph, "--graph")
    if args.tol is not None:
        config["tolerance"] = args.tol
    if args.time is not None:
        config["time"] = args.time
    if args.source is not None:
        config["from"] = _json_flag(args.source, "--from")
    if args.target is not None:
        config["to"] = _json_flag(args.target, "--to")
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        fmt = args.format or config.get("format", "json")
        if fmt not in ("json", "text"):
            raise ValidationError(f"unknown format {fmt!r}")
    except ValidationError as exc:
        print(json.dumps({"error": {"kind": "validation", "message": str(exc)}}, sort_keys=True))
        return 1
    report, code = run(config)
    if fmt == "text":
        print(render_text(report))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
