"""The benchmark's workloads: instance lists, warm-ups and expected results.

An instance is one `hrlab` command line run on its own forms file.  Its
forms are drawn from a seed derived from the workload seed, the pass number
and the instance id, so no two instances, and no two passes, share inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    id: str
    d: int
    e: int
    argv: tuple[str, ...]  # hrlab arguments, without --forms and --jobs

    @property
    def command(self) -> str:
        return self.argv[0]


def bounded_partitions(b: int, cap: int) -> list[tuple[int, ...]]:
    """Partitions of b with parts at most cap, lexicographically decreasing."""
    if b == 0:
        return [()]
    return [
        (p,) + rest
        for p in range(min(cap, b), 0, -1)
        for rest in bounded_partitions(b - p, p)
    ]


def _lam(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def verify_hr(d: int, e: int, parts: tuple[int, ...], trial: int = 0) -> Instance:
    return Instance(
        f"verify-hr:d{d}:e{e}:l{_lam(parts) or '0'}:t{trial}",
        d,
        e,
        ("verify-hr", "--lambda", _lam(parts)),
    )


def aug2(d: int, e: int, parts: tuple[int, ...]) -> Instance:
    return Instance(
        f"aug2:d{d}:e{e}:l{_lam(parts)}",
        d,
        e,
        ("family", "--check", "aug2", "--lambda", _lam(parts)),
    )


def recursion(d: int, e: int, parts: tuple[int, ...], j: int) -> Instance:
    return Instance(
        f"recursion:d{d}:e{e}:l{_lam(parts)}:j{j}",
        d,
        e,
        ("family", "--check", "recursion", "--i", str(j), "--lambda", _lam(parts)),
    )


def hr_grid(smoke: bool) -> list[Instance]:
    # Every admissible partition of d-2 with parts at most e; six draws per
    # cell give 17 * 6 = 102 instances, enough for ten samples above p90.
    ds, es, trials = (range(2, 5), range(1, 3), 1) if smoke else (range(2, 6), range(1, 4), 6)
    return [
        verify_hr(d, e, parts, trial)
        for d in ds
        for e in es
        for parts in bounded_partitions(d - 2, e)
        for trial in range(trials)
    ]


def schur_deep(smoke: bool) -> list[Instance]:
    if smoke:
        return [verify_hr(4, 2, p) for p in bounded_partitions(2, 2)] + [verify_hr(3, 1, (1,))]
    # d = 7 with (1^5) takes 28 s on its own and d = 8 does not finish, so
    # both are left out.
    return [verify_hr(6, 3, p) for p in bounded_partitions(4, 3)] + [
        verify_hr(7, 2, (2, 2, 1)),
        verify_hr(7, 2, (2, 1, 1, 1)),
    ]


def family_upgrade(smoke: bool) -> list[Instance]:
    if smoke:
        return [aug2(4, 2, p) for p in bounded_partitions(2, 2)] + [
            recursion(4, 2, (1, 1), j) for j in (2, 3)
        ]
    return [aug2(5, e, p) for e in (2, 3) for p in bounded_partitions(3, e)] + [
        recursion(5, 2, p, j) for p in bounded_partitions(3, 2) for j in (2, 3, 4)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # smoke flag -> list[Instance]
    warmup: Instance


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hr-grid", hr_grid, verify_hr(4, 2, (1, 1))),
        Workload("schur-deep", schur_deep, verify_hr(4, 2, (1, 1))),
        Workload("family-upgrade", family_upgrade, recursion(4, 2, (1, 1), 2)),
    )
}


def input_seed(workload: str, seed: int, pass_no: int, instance_id: str) -> int:
    """A 64-bit seed for one instance's forms in one pass."""
    material = f"perfbench|{workload}|{seed}|{pass_no}|{instance_id}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def check_report(inst: Instance, code: int, report: dict) -> str | None:
    """What theory says the instance must give; returns why it did not."""
    if code != 0:
        return f"exit code {code}"
    results = report.get("results")
    if not isinstance(results, list) or len(results) != 1:
        return "expected exactly one result"
    res = results[0]
    if inst.command == "verify-hr":
        want = [1, inst.d * inst.d - 1, 0]
        if res.get("signature") != want or res.get("pass") is not True:
            return f"signature {res.get('signature')}, expected {want}"
        return None
    # aug2 at d >= 4 and the recursion at j <= d-1 have all their hypotheses
    # met, so the verdict must be CONSISTENT; EXPECTED-FAIL comes only from
    # check A, which no workload runs.
    status = res.get("status")
    verdict = res.get("verdict", {}).get("status")
    if status != "PASS" or verdict != "CONSISTENT":
        return f"status {status} ({verdict}), expected PASS (CONSISTENT)"
    return None
