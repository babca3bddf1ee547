"""Batch driver for verification campaigns, reproducible by seed.

Three subcommands, each a grid of tasks that carry their inputs as values (a
--forms file is parsed and checked once; --jobs N pickles its Forms):

  verify-hr    signature assertions for intersection forms of Schur classes
  family       first/second-order condition checks and theorem verdicts
  gamma-scan   exploratory scan of convex combinations over a simplex grid

Reports are JSON with a stable schema; all wall-clock data lives in the
separate "timing" field so identical configs and seeds produce byte-identical
reports otherwise.  Exit codes: 0 all assertions pass, 1 assertion failure
(including any INCONSISTENT verdict, and a task that raised, which the report
records as an error result), 2 usage or configuration error, found before any
task runs and with no report written.  Among those: a flag the run does not
read that is not at its default (with --builtin, aug2's --i, and --trials,
--seed or a --d/--e other than the file's with --forms), and a campaign whose
report would hold more than MAX_RESULTS results.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

from .augmentation import (
    AugmentedSpace,
    CONSISTENT,
    INCONSISTENT,
    check_property_a,
    check_property_b,
    rank_drop_family,
    twist_family,
    verify_augmentation1,
    verify_augmentation2,
    verify_recursion,
)
from .bilinear import combine, gram, is_hr_wrt, signature
from .exterior import Form, form_to_hermitian
from .gaussian import fraction_from_str, fraction_to_str
from .positivity import is_positive_definite_11
from .sampling import derive_seed, random_positive_form
from .symfunc import Partition, partitions, schur

SCHEMA_VERSION = 1
SUPPORTED_D = range(2, 9)
# A task holds e forms; d^2 at the largest supported d bounds --e before its
# list is built.
SUPPORTED_E = range(1, SUPPORTED_D[-1] ** 2 + 1)
# A campaign whose report would hold more results is refused before any task
# list is built; the largest README campaign holds 85.
MAX_RESULTS = 10**5

# The flags a run may leave unread, by dest: spelling and default.  The parser
# takes its defaults from here, and _refuse_unread compares against them.
FLAGS = {
    "d": ("--d", "2..4"),
    "e": ("--e", "1..2"),
    "lam": ("--lambda", None),
    "trials": ("--trials", 1),
    "seed": ("--seed", None),
    "forms": ("--forms", None),
    "check": ("--check", None),
    "i": ("--i", None),
    "t_samples": ("--t-samples", None),
}


class UsageError(Exception):
    pass


def _span(supported: range) -> str:
    return f"{supported[0]}..{supported[-1]}"


# -- flag parsing -----------------------------------------------------------


def parse_range(text: str, name: str, supported: range | None = None) -> list[int]:
    """N or LO..HI as a list.  A bound outside `supported` is a usage error,
    raised before the list is built."""
    text = text.strip()
    try:
        lo, hi = map(int, text.split("..")) if ".." in text else (int(text),) * 2
        if lo > hi:
            raise ValueError
    except ValueError:
        raise UsageError(f"cannot parse {name} range {text!r}; use N or LO..HI") from None
    for bound in (lo, hi) if supported is not None else ():
        if bound not in supported:
            raise UsageError(f"{name} {bound} outside the supported range {_span(supported)}")
    return list(range(lo, hi + 1))


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text == "":
        return Partition(())
    try:
        return Partition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"malformed partition {text!r}: {exc}") from None


def parse_t_samples(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(fraction_from_str(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"malformed t-sample list {text!r}: {exc}") from None


def parse_index_list(text: str, d: int) -> list[int]:
    """The family indices --i names at d; naming one twice is a usage error."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "d":
            out.append(d)
        elif tok == "d-1":
            out.append(d - 1)
        elif ".." in tok:
            # Every check needs i in 2..d; the bound comes before the list is built.
            out.extend(parse_range(tok, "--i", range(2, d + 1)))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise UsageError(f"cannot parse index token {tok!r}") from None
    twice = next((i for k, i in enumerate(out) if i in out[:k]), None)
    if twice is not None:
        raise UsageError(f"--i names index {twice} more than once at d={d}")
    return out


def admissible_partitions(d: int, e: int) -> tuple[Partition, ...]:
    return partitions(d - 2, e)


# -- task workers (module level so process pools can pickle them) -----------


def _task_forms(args: dict, label: str, *key) -> tuple[list[Form], int | None]:
    """The task's forms: the --forms ones, or e draws seeded by (seed, label, *key)."""
    if args.get("forms") is not None:
        return args["forms"], None
    task_seed = derive_seed(args["seed"], label, *key)
    rng = random.Random(task_seed)
    return [random_positive_form(rng, args["d"]) for _ in range(args["e"])], task_seed


def _hr_task(args: dict) -> dict:
    d, e, parts, trial = args["d"], args["e"], tuple(args["lambda"]), args["trial"]
    omegas, task_seed = _task_forms(args, "verify-hr", d, e, parts, trial)
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sig = signature(gram(schur(Partition(parts), omegas)))
    expected = (1, d * d - 1, 0)
    result = {
        "d": d,
        "e": e,
        "lambda": list(parts),
        "trial": trial,
        "task_seed": task_seed,
        "signature": list(sig),
        "expected": list(expected),
        "pass": tuple(sig) == expected,
    }
    notes = [str(w.message) for w in caught]
    if notes:
        result["warnings"] = notes
    return result


def _a_expectations(d: int, i: int) -> dict[str, bool]:
    # A1 needs both Q_i(h) > 0 (holds for 2 <= i <= d) and the derivative
    # value (d-i+1) Q_{i-1}(h) > 0, which holds only for 3 <= i <= d since
    # Q_1 vanishes on W.  A5 pairs zeta against h through Q_{i+1}(h), gone
    # at i = d.  The remaining conditions hold throughout 2..d.
    return {
        "A1": 3 <= i <= d,
        "A2": True,
        "A3": True,
        "A4": True,
        "A5": 1 <= i <= d - 1,
    }


def _status_from_expectations(actual: dict, expected: dict) -> tuple[str, list[str]]:
    mismatch = [k for k in expected if actual[k] != expected[k]]
    if mismatch:
        return "FAIL", mismatch
    expected_failures = [k for k, v in expected.items() if not v]
    if expected_failures:
        return "EXPECTED-FAIL", expected_failures
    return "PASS", []


def _family_task(args: dict) -> dict:
    d, parts, check, i = args["d"], tuple(args["lambda"]), args["check"], args["i"]
    t_samples = args["t_samples"]
    omegas, task_seed = _task_forms(args, "family", d, args["e"], parts, args["trial"])
    space = AugmentedSpace(omegas)
    lam = Partition(parts)
    base = {
        "d": d,
        "e": args["e"],
        "lambda": list(parts),
        "trial": args["trial"],
        "task_seed": task_seed,
        "check": check,
    }
    if check in ("A", "B", "aug1"):
        family = (twist_family(space, lam, i), space.h_coords, space.zeta_coords, t_samples)
    if check in ("A", "B"):
        rep = (check_property_a if check == "A" else check_property_b)(*family)
        expected = _a_expectations(d, i) if check == "A" else {k: True for k in rep.checks}
        status, noted = _status_from_expectations(rep.checks, expected)
        base.update({"i": i, "report": rep.to_json(), "status": status, "expected_failures": noted})
        return base
    if check == "aug1":
        verdict = verify_augmentation1(*family)
        base["i"] = i
    elif check == "recursion":
        verdict = verify_recursion(space, lam, i, t_samples)
        base["j"] = i
    else:
        verdict = verify_augmentation2(space, lam, t_samples)
    base.update({"verdict": verdict.to_json(), "status": _verdict_status(verdict.status)})
    return base


def _verdict_status(status: str) -> str:
    if status == CONSISTENT:
        return "PASS"
    if status == INCONSISTENT:
        return "FAIL"
    return "NOT-APPLICABLE"


def _gamma_trial_task(args: dict) -> dict:
    d, e, trial = args["d"], args["e"], args["trial"]
    lams = admissible_partitions(d, e)
    omegas, task_seed = _task_forms(args, "gamma-scan", d, e, trial)
    # The intersection form is linear in the class, so one gram matrix per
    # partition turns every grid point into a cheap rational combination.
    grams = [gram(schur(lam, omegas)) for lam in lams]
    points = [tuple(Fraction(c, args["grid"]) for c in comp) for comp in args["points"]]
    out = []
    for x in points:
        sig = signature(combine(x, grams))
        out.append({"signature": list(sig), "hr": tuple(sig) == (1, d * d - 1, 0)})
    return {"trial": trial, "task_seed": task_seed, "per_point": out}


def _compositions(total: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples of non-negative integers summing to total, first index high."""
    if k == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return out


def _timed_call(call: tuple) -> tuple[dict, float]:
    """The task's result and seconds; an exception becomes an error result.

    An error result names the task by its grid coordinates or its builtin
    and holds "error": "<Type>: <message>"; the traceback goes to stderr.  The
    subcommands count it as failed, so one broken task costs the campaign
    neither its report nor its other results.
    """
    worker, task = call
    t0 = time.perf_counter()
    try:
        result = worker(task)
    except Exception as exc:
        traceback.print_exc()
        result = {key: task[key] for key in ("d", "e", "lambda", "trial", "check", "i", "builtin") if key in task}
        result["error"] = f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0


def _run_tasks(worker, tasks: list[dict], jobs: int) -> tuple[list[dict], dict]:
    """Results, and the report's timing field: when, and how long each task and
    the whole run took.  All wall-clock data lives there and only there, so
    reports stay byte-identical across reruns once that field is dropped."""
    t0 = time.perf_counter()
    calls = [(worker, task) for task in tasks]
    if jobs > 1 and len(tasks) > 1:
        # A pool may start all its workers on the first submit, so it is no
        # wider than the task list.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            timed = list(pool.map(_timed_call, calls))
    else:
        timed = list(map(_timed_call, calls))
    timing = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
        "per_task_seconds": [round(s, 6) for _, s in timed],
    }
    return [r for r, _ in timed], timing


# -- subcommands ------------------------------------------------------------


class Inputs(NamedTuple):
    """A campaign's dimensions and form counts, and its forms file's Forms."""

    d: list[int]
    e: list[int]
    forms: list[Form] | None


def _resolve(ns: argparse.Namespace, results_per_draw) -> Inputs:
    """The --d/--e ranges and the --forms file, checked, and the campaign bounded.

    A forms file fixes d and e, which --d/--e may then only repeat; without one
    --seed is required.  results_per_draw(d, e) counts the results of one draw
    at (d, e); over ns.trials draws (1 under --forms) they may not pass
    MAX_RESULTS, counted before any task list is built.
    """
    dlist = parse_range(ns.d, "--d", SUPPORTED_D)
    elist = parse_range(ns.e, "--e", SUPPORTED_E)
    forms = _load_forms(ns)
    if forms is not None:
        fixed_d, fixed_e = [forms[0].d], [len(forms)]
        if (ns.d != FLAGS["d"][1] and dlist != fixed_d) or (ns.e != FLAGS["e"][1] and elist != fixed_e):
            raise UsageError("forms file does not match --d/--e")
        dlist, elist = fixed_d, fixed_e
    elif ns.seed is None:
        raise UsageError("--seed is mandatory for randomized commands")
    count = ns.trials * sum(results_per_draw(d, e) for d in dlist for e in elist)
    if count > MAX_RESULTS:
        raise UsageError(f"the campaign would report {count} results, above the bound of {MAX_RESULTS}")
    return Inputs(dlist, elist, forms)


def _partitions_for(lam: Partition | None, d: int, e: int) -> tuple[Partition, ...]:
    """The explicit --lambda, checked against d, or each admissible partition."""
    if lam is None:
        return admissible_partitions(d, e)
    if lam.weight != d - 2:
        raise UsageError(f"--lambda {lam.parts} has weight {lam.weight}, need {d - 2} for d={d}")
    return (lam,)


def _grid(ns: argparse.Namespace, inputs: Inputs, lam: Partition | None) -> list[dict]:
    """One task per (d, e, partition, trial), for verify-hr and family."""
    return [
        {"d": d, "e": e, "lambda": list(p.parts), "trial": trial, "seed": ns.seed, "forms": inputs.forms}
        for d in inputs.d
        for e in inputs.e
        for p in _partitions_for(lam, d, e)
        for trial in range(ns.trials)
    ]


def _part_above_e(lam: Partition | None, inputs: Inputs) -> list[str]:
    """A warning per (d, e) where the explicit --lambda has a part above e:
    s_lam(omega) vanishes there, so what fails is the input, not the theorem."""
    return [
        f"lambda {lam.parts} has a part above e={e}; "
        "the signature assertion is outside the guaranteed range"
        for d in inputs.d
        for e in inputs.e
        if lam is not None and lam.largest > e
    ]


def cmd_verify_hr(ns: argparse.Namespace) -> tuple[dict, int]:
    lam = parse_partition(ns.lam) if ns.lam is not None else None
    inputs = _resolve(ns, lambda d, e: len(_partitions_for(lam, d, e)))
    warnings_out = _part_above_e(lam, inputs)
    results, timing = _run_tasks(_hr_task, _grid(ns, inputs, lam), ns.jobs)
    failed = [r for r in results if "error" in r or not r["pass"]]
    body = {
        "results": results,
        "summary": {
            "total": len(results),
            "passed": len(results) - len(failed),
            "failed": len(failed),
        },
    }
    if warnings_out:
        body["warnings"] = warnings_out
    return _report(ns, inputs, timing, body), (1 if failed else 0)


def cmd_family(ns: argparse.Namespace) -> tuple[dict, int]:
    # No flag means the defaults; a given list, even an empty one
    # ("--t-samples=,"), means exactly its samples.
    t_samples = parse_t_samples(ns.t_samples) if ns.t_samples is not None else None
    if ns.builtin:
        task = {"builtin": ns.builtin, "t_samples": t_samples}
        results, timing = _run_tasks(_builtin_task, [task], ns.jobs)
        failed = [r for r in results if "error" in r or r["status"] == "FAIL"]
        summary = {"total": 1, "passed": len(results) - len(failed), "failed": len(failed)}
        return _report(ns, None, timing, {"results": results, "summary": summary}), (1 if failed else 0)
    if not ns.check:
        raise UsageError("family needs --check or --builtin")
    lam = parse_partition(ns.lam) if ns.lam is not None else None
    indices = functools.cache(lambda d: _indices(ns.check, ns.i, d))
    inputs = _resolve(ns, lambda d, e: len(_partitions_for(lam, d, e)) * len(indices(d)))
    tasks = [
        dict(task, check=ns.check, i=i, t_samples=t_samples)
        for task in _grid(ns, inputs, lam)
        for i in indices(task["d"])
    ]
    results, timing = _run_tasks(_family_task, tasks, ns.jobs)
    failed = [r for r in results if "error" in r or r["status"] == "FAIL"]
    body = {
        "results": results,
        "summary": {
            "total": len(results),
            "passed": sum(1 for r in results if r.get("status") == "PASS"),
            "expected_fail": sum(1 for r in results if r.get("status") == "EXPECTED-FAIL"),
            "not_applicable": sum(1 for r in results if r.get("status") == "NOT-APPLICABLE"),
            "failed": len(failed),
        },
    }
    warnings_out = _part_above_e(lam, inputs)
    if warnings_out:
        body["warnings"] = warnings_out
    return _report(ns, inputs, timing, body), (1 if failed else 0)


_TWIST_INDEX = "--i must lie in 2..d, got {i} at d={d}"
# Per check: the indices run at d without --i, the indices --i may name at d,
# and the refusal of any other.  The recursion's index is its depth j; aug2
# reads no --i.
FAMILY_INDICES = {
    "A": (lambda d: range(2, d), lambda d: range(2, d + 1), _TWIST_INDEX),
    "B": (lambda d: [d], lambda d: [d], "the second-order check runs at i = d only"),
    "aug1": (lambda d: range(3, d), lambda d: range(2, d + 1), _TWIST_INDEX),
    "recursion": (lambda d: [d - 1], lambda d: range(2, d), "recursion needs 2 <= j <= d-1, got j={i} at d={d}"),
    "aug2": (lambda d: [None], lambda d: [None], None),
}


def _indices(check: str, text: str | None, d: int) -> list[int | None]:
    """The family indices a check runs at d: --i's list (text) or the default."""
    default, admissible, refusal = FAMILY_INDICES[check]
    idx = list(default(d)) if text is None else parse_index_list(text, d)
    if not idx:
        raise UsageError(f"no applicable family index for check {check} at d={d}; pass --i")
    for i in idx:
        if i not in admissible(d):
            raise UsageError(refusal.format(i=i, d=d))
    return idx


def _builtin_task(task: dict) -> dict:
    return _builtin_minkowski() if task["builtin"] == "minkowski" else _builtin_rank_drop(task["t_samples"])


def _builtin_rank_drop(ts: tuple[Fraction, ...] | None) -> dict:
    fam = rank_drop_family(3)
    h = (Fraction(1), Fraction(0), Fraction(0))
    ts = (Fraction(1, 10), Fraction(-1, 10)) if ts is None else ts
    q0 = fam.at(0)
    sig0 = signature(q0)
    deriv = fam.derivative().at(0)
    checks = {
        "t0_signature_(1,1,1)": tuple(sig0) == (1, 1, 1),
        "t0_weak_hr_wrt_h": q0.quad(h) > 0 and sig0.n_plus == 1,
        "t0_not_hr": tuple(sig0) != (1, 2, 0),
        "t0_kernel_dimension_1": sig0.n_zero == 1,
        "derivative_hr": is_hr_wrt(deriv, h),
    }
    per_t = []
    for t in ts:
        if t == 0:
            continue
        sig = signature(fam.at(t))
        per_t.append({"t": fraction_to_str(t), "signature": list(sig)})
        checks[f"hr_at_t={t}"] = tuple(sig) == (1, 2, 0)
    # Embedded with the third coordinate as the formal direction, the
    # first-order hypotheses must fail: this family is the stock example of
    # why the upgrade needs them.
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    verdict = verify_augmentation1(fam, h, zeta, ts)
    checks["embedded_first_order_not_applicable"] = verdict.status == "NOT-APPLICABLE"
    status = "PASS" if all(checks.values()) else "FAIL"
    return {
        "builtin": "remark-3.7",
        "checks": checks,
        "t0_signature": list(sig0),
        "derivative_signature": list(signature(deriv)),
        "per_t": per_t,
        "embedded_verdict": verdict.to_json(),
        "status": status,
    }


def _builtin_minkowski() -> dict:
    g = gram(Form.scalar(2, 1))
    sig = signature(g)
    ok = tuple(sig) == (1, 3, 0)
    return {
        "builtin": "minkowski",
        "signature": list(sig),
        "matrix": [[fraction_to_str(x) for x in row] for row in g.matrix],
        "checks": {"signature_(1,3,0)": ok},
        "status": "PASS" if ok else "FAIL",
    }


def cmd_gamma_scan(ns: argparse.Namespace) -> tuple[dict, int]:
    if ns.grid < 1:
        raise UsageError("--grid must be at least 1")
    # A draw reports each point of the simplex grid: binom(grid + k - 1, grid)
    # for k partitions.
    inputs = _resolve(ns, lambda d, e: comb(ns.grid + len(admissible_partitions(d, e)) - 1, ns.grid))
    if len(inputs.d) != 1 or len(inputs.e) != 1:
        raise UsageError("gamma-scan needs a single --d and --e")
    [d], [e] = inputs.d, inputs.e

    lams = admissible_partitions(d, e)
    k = len(lams)
    comps = _compositions(ns.grid, k)
    tasks = [
        {
            "d": d,
            "e": e,
            "trial": trial,
            "seed": ns.seed,
            "forms": inputs.forms,
            "grid": ns.grid,
            "points": comps,
        }
        for trial in range(ns.trials)
    ]
    results, timing = _run_tasks(_gamma_trial_task, tasks, ns.jobs)
    errors = [tr for tr in results if "error" in tr]
    trial_results = [tr for tr in results if "error" not in tr]

    points, vertex_failures, non_hr = [], [], []
    for p_idx, comp in enumerate(comps):
        x = [fraction_to_str(Fraction(c, ns.grid)) for c in comp]
        vertex = ns.grid in comp
        rows = [{"trial": tr["trial"], **tr["per_point"][p_idx]} for tr in trial_results]
        non_hr += [{"x": x, "trial": r["trial"], "signature": r["signature"]} for r in rows if not r["hr"]]
        vertex_failures += [{"x": x, "trial": r["trial"]} for r in rows if vertex and not r["hr"]]
        points.append({"x": x, "vertex": vertex, "trials": rows})
    body = {
        "partitions": [list(l.parts) for l in lams],
        "k": k,
        "grid_points": len(comps),
        "results": points,
        "summary": {
            "trials": ns.trials,
            "vertex_failures": vertex_failures,
            "non_hr_sightings": non_hr,
            "note": "interior points are exploratory; only simplex vertices are asserted",
        },
    }
    if errors:
        body["summary"]["errors"] = errors
    return _report(ns, inputs, timing, body), (1 if vertex_failures or errors else 0)


# -- shared plumbing --------------------------------------------------------


def _refuse_unread(ns: argparse.Namespace) -> None:
    """A flag the run does not read must stay at its default, since the config
    would echo a value that steered nothing.

    A builtin brings its own data (remark-3.7 reads --t-samples), aug2 reads
    no --i, and a forms file fixes the draws.
    """
    builtin = getattr(ns, "builtin", None)
    unread = []
    if builtin:
        campaign = ("d", "e", "lam", "trials", "seed", "forms", "check", "i")
        unread.append((f"--builtin {builtin}", campaign + ("t_samples",) * (builtin == "minkowski")))
    if getattr(ns, "check", None) == "aug2":
        unread.append(("the aug2 check", ("i",)))
    if ns.forms:
        unread.append(("--forms", ("trials", "seed")))
    for subject, dests in unread:
        if given := [FLAGS[k][0] for k in dests if getattr(ns, k) != FLAGS[k][1]]:
            raise UsageError(f"{subject} takes no {', '.join(given)}")


def _load_forms(ns: argparse.Namespace):
    """The --forms file's checked Forms, all of one dimension, or None without one.

    Sets ns.forms_sha256 to the hash of the bytes read, for the config echo.
    """
    if not ns.forms:
        return None
    try:
        raw = Path(ns.forms).read_bytes()
        obj = json.loads(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read forms file {ns.forms}: {exc}") from None
    ns.forms_sha256 = hashlib.sha256(raw).hexdigest()
    obj = obj.get("omegas") if isinstance(obj, dict) else None
    if not isinstance(obj, list) or not obj:
        raise UsageError("forms file must hold a non-empty list under 'omegas'")
    # Checked before Form.from_json, which allocates by the dimension.
    for f in obj:
        d = f.get("dimension") if isinstance(f, dict) else None
        if not isinstance(d, int) or d not in SUPPORTED_D:
            raise UsageError(f"forms file: dimension {d!r} outside the supported range {_span(SUPPORTED_D)}")
    try:
        forms = [Form.from_json(f) for f in obj]
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed form in file: {exc}") from None
    d = forms[0].d
    for f in forms:
        if f.d != d:
            raise UsageError("forms file mixes dimensions")
        try:
            matrix = form_to_hermitian(f)
        except ValueError as exc:
            raise UsageError(f"forms file: {exc}") from None
        if not is_positive_definite_11(matrix):
            raise UsageError("forms file contains a non strictly positive form")
    return forms


def _report(ns: argparse.Namespace, inputs: Inputs | None, timing: dict, body: dict) -> dict:
    """The command's report: its body, with the fields every report holds."""
    config = {}
    # --out and --jobs steer where and how the work runs, not what it is,
    # so they stay out of the echoed config to keep reports byte-stable.
    # forms_sha256 is set once a forms file is read: the path alone does not
    # say which forms ran.
    for key in ("d", "e", "lam", "trials", "seed", "t_samples", "grid", "check", "builtin",
                "forms", "forms_sha256"):
        if hasattr(ns, key):
            config["lambda" if key == "lam" else key] = getattr(ns, key)
    if inputs is not None:
        config["resolved_d"], config["resolved_e"] = inputs.d, inputs.e
    if getattr(ns, "i", None) is not None:
        config["i"] = ns.i
    return {"schema_version": SCHEMA_VERSION, "command": ns.command, "config": config, **body, "timing": timing}


def _emit(report: dict, ns: argparse.Namespace) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if ns.out:
        Path(ns.out).write_text(text)
        summary = report.get("summary", {})
        print(f"{report['command']}: wrote {ns.out} ({json.dumps(summary, sort_keys=True)})")
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hrlab",
        description="Exact verification campaigns for intersection forms of Schur classes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_lambda=True):
        sp.add_argument(
            "--d", default=FLAGS["d"][1], help=f"dimension or range LO..HI (supported {_span(SUPPORTED_D)})"
        )
        sp.add_argument(
            "--e", default=FLAGS["e"][1], help=f"number of positive forms, or range (supported {_span(SUPPORTED_E)})"
        )
        if with_lambda:
            sp.add_argument("--lambda", dest="lam", default=FLAGS["lam"][1],
                            help="explicit partition of d-2, comma separated; empty string for the empty partition")
        sp.add_argument("--trials", type=int, default=FLAGS["trials"][1], help="seeded random draws per instance")
        sp.add_argument("--seed", type=int, default=FLAGS["seed"][1], help="campaign seed (mandatory when sampling)")
        sp.add_argument("--forms", default=FLAGS["forms"][1], help="JSON file with fixed strictly positive forms")
        sp.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    sp = sub.add_parser("verify-hr", help="assert signature (1, d^2-1, 0) for Schur intersection forms")
    common(sp)
    sp.set_defaults(func=cmd_verify_hr)

    sp = sub.add_parser("family", help="first/second-order condition checks and theorem verdicts")
    common(sp)
    sp.add_argument("--check", choices=["A", "B", "recursion", "aug1", "aug2"], default=FLAGS["check"][1])
    sp.add_argument("--i", default=FLAGS["i"][1],
                    help="family index (int, 'd', 'd-1', comma list or LO..HI); for recursion this is the depth j")
    sp.add_argument("--t-samples", dest="t_samples", default=FLAGS["t_samples"][1],
                    help="comma-separated rational sample points, e.g. '1/100,-1/100'; "
                         "a list that starts with a minus sign needs '=': --t-samples=-1/10,1/10")
    sp.add_argument("--builtin", choices=["remark-3.7", "minkowski"], default=None,
                    help="run a built-in example family instead of sampled data")
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("gamma-scan", help="scan convex combinations of Schur classes over a simplex grid")
    common(sp, with_lambda=False)
    sp.add_argument("--grid", type=int, default=4, help="simplex grid resolution")
    sp.set_defaults(func=cmd_gamma_scan)
    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        for flag in ("trials", "jobs"):
            if getattr(ns, flag) < 1:
                raise UsageError(f"--{flag} must be at least 1, got {getattr(ns, flag)}")
        # Checked before any task runs, so a bad path cannot cost a campaign.
        if ns.out and (Path(ns.out).is_dir() or not Path(ns.out).parent.is_dir()):
            raise UsageError(f"--out {ns.out} is not a file in an existing directory")
        _refuse_unread(ns)
        report, code = ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, ns)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
