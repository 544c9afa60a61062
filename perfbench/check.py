"""Output checks and report-derived counts.

Two checks run on every job, outside the timed phase:

* an independent one: the adjacency is rebuilt here by index arithmetic
  (no package code), spectra are compared with `numpy.linalg.eigvalsh`, and
  every `yes` verdict, exact period and timed `pst-check` is re-evaluated
  with the dense exponential exp(-itA) = V diag(exp(-i t w)) V^T from
  `numpy.linalg.eigh`;
* a reference one: the exact fields of the report (statuses, pi-multiples,
  exact eigenvalues, `integral`, `eigen_gcd`, `pass`) must equal those of
  the frozen seed-commit code in `perfbench/seedref`.  A field may become
  more decided than the reference only when the independent check confirms
  it; a new `no` needs the reference scan maximum below 1 - 1e-4.

This module imports no package code, so the reference worker and the
checker share `digest` without sharing the program under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

MAGNITUDE_TOL = 1e-8
SCAN_REFUTE_MAX = 1.0 - 1e-4
# per scan cell and branch (lambda+ and lambda-): a float64 phase of the
# outer product and its complex128 exponential
SCAN_BYTES_PER_CELL = 2 * (8 + 16)


# -- exact digest shared with the reference worker ----------------------------


def _verdict_digest(v: dict) -> list:
    pi_multiple = v["time"]["pi_multiple"] if v.get("time") else None
    scan = v["certificate"].get("scan") if v["status"] == "undecided" else None
    return [v["from"], v["to"], v["status"], pi_multiple, scan["max_magnitude"] if scan else None]


def _period_digest(p: dict) -> list:
    scan = p["certificate"].get("scan") if p["periodic"] is None else None
    return [p["periodic"], p["min_period_pi_multiple"], scan["max_min_diagonal_magnitude"] if scan else None]


def digest(report: dict, code: int) -> dict:
    """The exact fields of a report that later versions must reproduce."""
    if code != 0 or "error" in report:
        return {"exit": code}
    out: dict = {"exit": 0}
    if report["command"] == "spectrum":
        out["integral"] = report["integral"]
        out["eigen_gcd"] = report["eigen_gcd"]
        out["exact"] = [[row["lambda_plus_exact"], row["lambda_minus_exact"]]
                        for row in report["spectrum"]["characters"]]
    if "verdicts" in report:
        out["verdicts"] = [_verdict_digest(v) for v in report["verdicts"]]
    if "verdict" in report:
        out["verdicts"] = [_verdict_digest(report["verdict"])]
    if "periodicity" in report:
        out["period"] = _period_digest(report["periodicity"])
    if "pass" in report:
        out["pass"] = report["pass"]
    return out


# -- independent evaluation -----------------------------------------------------


class Graph:
    """Adjacency and eigendecomposition of a report's graph, built here."""

    def __init__(self, graph: dict) -> None:
        factors = [int(n) for n in graph["group"]["factors"]]
        self.n = math.prod(factors)
        self.strides = [math.prod(factors[i + 1:]) for i in range(len(factors))]
        coords = np.array(list(product(*(range(f) for f in factors))), dtype=np.int64).reshape(self.n, -1)
        diff = (coords[None, :, :] - coords[:, None, :]) % np.array(factors)
        diff_index = diff @ np.array(self.strides, dtype=np.int64)  # [x, y] -> index of y - x

        def block(xs):
            member = np.zeros(self.n, dtype=float)
            member[[self.index(g) for g in xs]] = 1.0
            return member[diff_index]

        spokes = block(graph["S"])
        self.adjacency = np.block([[block(graph["R"]), spokes], [spokes.T, block(graph["L"])]])
        self._eig = None

    def index(self, element) -> int:
        return sum(int(x) * s for x, s in zip(element, self.strides))

    def vertex(self, obj) -> int:
        element, layer = obj
        return int(layer) * self.n + self.index(element)

    @property
    def eig(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.adjacency)
        return self._eig

    def integral(self) -> bool:
        w = self.eig[0]
        return bool(np.all(np.abs(w - np.round(w)) < 1e-6))

    def time(self, pi_multiple: Fraction) -> float:
        # with integer eigenvalues H(t + 2 pi) = H(t): reduce exactly first
        if self.integral():
            pi_multiple = pi_multiple % 2
        return float(pi_multiple) * math.pi

    def magnitude(self, u: int, v: int, pi_multiple: Fraction) -> float:
        w, vecs = self.eig
        phase = np.exp(-1j * w * self.time(pi_multiple))
        return float(abs(np.sum(vecs[u] * vecs[v] * phase)))

    def min_diagonal(self, pi_multiple: Fraction) -> float:
        w, vecs = self.eig
        phase = np.exp(-1j * w * self.time(pi_multiple))
        return float(np.min(np.abs((vecs * vecs) @ phase)))


def independent_problems(report: dict, graph: Graph) -> list[str]:
    """Disagreements between a successful report and the independent evaluation."""
    problems = []
    command = report["command"]
    if command == "spectrum":
        rows = report["spectrum"]["characters"]
        claimed = np.sort([x for row in rows for x in (row["lambda_plus"], row["lambda_minus"])])
        numeric = np.linalg.eigvalsh(graph.adjacency)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        if claimed.shape != numeric.shape or np.max(np.abs(claimed - numeric)) > 1e-10 * scale:
            problems.append("spectrum differs from eigvalsh")
        for row in rows:
            for key in ("lambda_plus", "lambda_minus"):
                exact = row[key + "_exact"]
                if exact is not None and abs(exact - row[key]) > 1e-6:
                    problems.append(f"exact eigenvalue {exact} differs from {row[key]}")
        if report["integral"]:
            if not graph.integral():
                problems.append("reported integral but eigvalsh is not")
            elif report["eigen_gcd"] is not None:
                ints = np.round(numeric).astype(np.int64)
                gaps = [abs(int(x) - int(ints[-1])) for x in ints if x != ints[-1]]
                if gaps and math.gcd(*gaps) != report["eigen_gcd"]:
                    problems.append("eigen_gcd differs from the eigvalsh gaps")
    verdicts = report.get("verdicts") or ([report["verdict"]] if "verdict" in report else [])
    for v in verdicts:
        if v["status"] == "yes":
            q = Fraction(v["time"]["pi_multiple"])
            mag = graph.magnitude(graph.vertex(v["from"]), graph.vertex(v["to"]), q)
            if mag < 1.0 - MAGNITUDE_TOL:
                problems.append(f"yes {v['from']} -> {v['to']} at {q} pi has |H| = {mag}")
    period = report.get("periodicity")
    if period and period["periodic"] and period["min_period_pi_multiple"] is not None:
        q = Fraction(period["min_period_pi_multiple"])
        worst = graph.min_diagonal(q)
        if worst < 1.0 - MAGNITUDE_TOL:
            problems.append(f"period {q} pi has min |H_uu| = {worst}")
    if command == "pst-check" and "pass" in report:
        q = Fraction(report["time"]["pi_multiple"])
        mag = graph.magnitude(graph.vertex(report["from"]), graph.vertex(report["to"]), q)
        if report["pass"] != (mag >= 1.0 - MAGNITUDE_TOL) or abs(report["magnitude"] - mag) > 1e-6:
            problems.append(f"pst-check at {q} pi: reported {report['magnitude']}, expected {mag}")
    return problems


# -- comparison with the seed-commit reference ------------------------------------


def _more_decided(new, old) -> bool:
    return old is None and new is not None


def reference_problems(cand: dict, ref: dict) -> list[str]:
    """Exact-field differences from the reference that the rules do not allow.

    The independent check has already confirmed every `yes`, exact period and
    exact eigenvalue of the candidate, so a field that was open in the
    reference and is now decided needs no further evidence, except a new
    `no`, which needs the reference scan to have stayed below 1 - 1e-4.
    """
    if ref["exit"] != 0:
        return []  # the seed code failed this job; only the independent check applies
    problems = []
    for key in ("integral", "eigen_gcd", "pass"):
        if key in ref and cand.get(key) != ref[key]:
            upgraded = key == "integral" and cand.get(key) is True and ref[key] is False
            if not (upgraded or (key == "eigen_gcd" and _more_decided(cand.get(key), ref[key]))):
                problems.append(f"{key}: {cand.get(key)!r} != reference {ref[key]!r}")
    if "exact" in ref:
        for i, (new, old) in enumerate(zip(cand.get("exact", []), ref["exact"])):
            if new != old and not all(a == b or _more_decided(a, b) for a, b in zip(new, old)):
                problems.append(f"exact eigenvalues of character {i}: {new} != reference {old}")
        if len(cand.get("exact", [])) != len(ref["exact"]):
            problems.append("number of characters differs from the reference")
    if "verdicts" in ref:
        new_list = cand.get("verdicts", [])
        if [v[:2] for v in new_list] != [v[:2] for v in ref["verdicts"]]:
            problems.append("verdict pairs differ from the reference")
        for new, old in zip(new_list, ref["verdicts"]):
            if new[2:4] == old[2:4]:
                continue
            if old[2] == "undecided" and (new[2] == "yes" or (new[2] == "no" and old[4] < SCAN_REFUTE_MAX)):
                continue
            problems.append(f"verdict {new[0]} -> {new[1]}: {new[2:4]} != reference {old[2:4]}")
    if "period" in ref:
        new, old = cand.get("period", [None, None, None]), ref["period"]
        if new[:2] != old[:2] and not (
            old[0] is None and (new[0] is True or (new[0] is False and old[2] < SCAN_REFUTE_MAX))
        ):
            problems.append(f"periodicity {new[:2]} != reference {old[:2]}")
    return problems


# -- report-derived counts -----------------------------------------------------------

VERDICT_STATUSES = ("yes", "no", "undecided")
RULES = ("necessary-condition", "order-2", "non-integral", "valuation", "valuation-profile",
         "chi-s-zero", "r-neq-l", "spoke-valuation", "sign", "phase-obstruction", "numeric-scan")
PERIOD_METHODS = ("theorem", "degenerate", "phase-obstruction", "numeric-scan")


def report_counts(reports: list[dict]) -> dict[str, int]:
    """Exact counters read off the reports: they repeat from run to run."""
    counts = {f"pst.verdict.{s}": 0 for s in VERDICT_STATUSES}
    counts.update({f"pst.rule.{r}": 0 for r in RULES + ("other",)})
    counts.update({f"pst.period.{m}": 0 for m in PERIOD_METHODS + ("other",)})
    counts.update({"pst.scan.cells": 0, "decisions": 0, "undecided": 0})
    for report in reports:
        if "error" in report:
            continue
        n = math.prod(report["graph"]["group"]["factors"])
        verdicts = report.get("verdicts") or ([report["verdict"]] if "verdict" in report else [])
        for v in verdicts:
            counts[f"pst.verdict.{v['status']}"] += 1
            rule = v["certificate"].get("rule")
            counts[f"pst.rule.{rule if rule in RULES else 'other'}"] += 1
            if v["status"] == "undecided":
                counts["undecided"] += 1
                counts["pst.scan.cells"] += v["certificate"]["scan"]["samples"] * n
        counts["decisions"] += len(verdicts)
        period = report.get("periodicity")
        if period is not None:
            method = period["method"]
            counts[f"pst.period.{method if method in PERIOD_METHODS else 'other'}"] += 1
            counts["decisions"] += 1
            if period["periodic"] is None:
                counts["undecided"] += 1
                scan = period["certificate"].get("scan", {})
                counts["pst.scan.cells"] += 2 * scan.get("samples", 0) * n  # both diagonals
    counts["pst.scan.bytes_computed"] = counts["pst.scan.cells"] * SCAN_BYTES_PER_CELL
    return counts
