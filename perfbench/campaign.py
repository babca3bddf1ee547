"""One benchmark run: repeated set-ups, timed passes, result checks, metrics.

A pass runs every instance of a workload once, each as one in-process
`hrlab.cli.main([...])` call with `--jobs 1` on its own forms file, timed from
outside.  Before each pass a set-up imports a fresh copy of hrlab from the
checkout's `src/`, draws and writes that pass's forms, and runs one warm-up
instance; so every pass starts from the same cold caches and no two passes
share inputs.  Passes repeat while the next one is expected to end within
the run's time.  Set-ups without a pass then fill what is left of it, and
run past it while fewer than MIN_SETUPS have been made.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

from spans import LAYERS, Tracer, count_metrics, layer_metrics
from workloads import WORKLOADS, Instance, check_report, input_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# An untraced run reports the median of at least this many set-ups.
MIN_SETUPS = 15
# The seed whose report digests perfbench/digests.json records.
DIGEST_SEED = 1
# A percentile is resolved when at least this many samples lie above it.
TAIL_SAMPLES = 10


class CheckoutError(Exception):
    pass


def use_checkout() -> None:
    """Put the checkout's src/ first on the import path, or fail."""
    if not (SRC / "hrlab" / "__init__.py").is_file():
        raise CheckoutError(f"no hrlab package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def import_hrlab():
    """Import a fresh copy of hrlab; returns (layer -> module, package)."""
    for name in [n for n in sys.modules if n == "hrlab" or n.startswith("hrlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hrlab")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise CheckoutError(f"imported hrlab from {pkg.__file__}, not from {SRC}")
    return {layer: importlib.import_module(f"hrlab.{layer}") for layer in LAYERS}, pkg


# -- statistics and digests -------------------------------------------------


def percentile(values, q: float) -> tuple[float, bool]:
    """Nearest-rank q-quantile, and whether TAIL_SAMPLES samples lie above it."""
    ordered = sorted(values)
    rank = max(1, ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank >= TAIL_SAMPLES


def canonical(report: dict) -> str:
    """The report without its `config` and `timing` fields, as stable JSON.

    `config` echoes the forms file path and `timing` holds wall-clock data;
    everything else must be byte-identical for identical inputs.
    """
    body = {k: v for k, v in report.items() if k not in ("config", "timing")}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(instance_digests: list[tuple[str, str]]) -> str:
    return digest("".join(f"{iid} {sha}\n" for iid, sha in instance_digests))


def load_digests() -> dict:
    """Workload name -> {"sha256": ..., "instances": {id: sha256}}."""
    return json.loads(DIGESTS.read_text())


# -- running instances ------------------------------------------------------


@dataclass
class Outcome:
    instance: Instance
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None


def call(cli, inst: Instance, path: Path) -> Outcome:
    """Run one instance through `cli.main`, timed from outside."""
    argv = [*inst.argv, "--forms", str(path), "--jobs", "1"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if error is None and code:
        error = err.getvalue().strip() or None
    return Outcome(inst, seconds, code, out.getvalue(), error)


def check(outcome: Outcome) -> tuple[str | None, str | None]:
    """(why the instance failed or None, digest of its canonical report)."""
    if outcome.code is None:
        return f"raised: {outcome.error}", None
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return f"exit code {outcome.code}, no JSON report: {outcome.error}", None
    return check_report(outcome.instance, outcome.code, report), digest(canonical(report))


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    campaign_s: list[float] = field(default_factory=list)
    instance_s: list[float] = field(default_factory=list)
    traced_campaign_s: list[float] = field(default_factory=list)
    layer: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    span_count: int = 0
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    digests: list[tuple[str, str]] = field(default_factory=list)
    digest_status: str = "not checked"


class Campaign:
    def __init__(self, workload: str, seed: int, workdir: Path, smoke: bool = False):
        self.workload = WORKLOADS[workload]
        self.instances = self.workload.build(smoke)
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.run = Run(workload, seed)
        self.tracer = Tracer()

    def setup(self, pass_no: int, traced: bool):
        """Fresh import, this pass's inputs, one warm-up; returns hrlab.cli."""
        start = time.perf_counter()
        modules, pkg = import_hrlab()
        if traced:
            self.tracer.install(modules, rebind_in=[*modules.values(), pkg])
            self.tracer.instance = "setup"
        sampling = modules["sampling"]
        warmup = self.workload.warmup
        for idx, inst in enumerate([warmup, *self.instances]):
            label = ("warmup:" if idx == 0 else "") + inst.id
            rng = random.Random(input_seed(self.workload.name, self.seed, pass_no, label))
            forms = [sampling.random_positive_form(rng, inst.d) for _ in range(inst.e)]
            self._path(idx).write_text(json.dumps({"omegas": [f.to_json() for f in forms]}))
        self.tracer.instance = "warmup"
        outcome = call(modules["cli"], warmup, self._path(0))
        self.tracer.instance = None
        gc.collect()
        self.run.setup_s.append(time.perf_counter() - start)
        self._record([outcome], pass_no=None)
        return modules["cli"]

    def timed_pass(self, cli, traced: bool) -> tuple[float, list[Outcome]]:
        outcomes = []
        start = time.perf_counter()
        for idx, inst in enumerate(self.instances, start=1):
            if traced:
                self.tracer.instance = inst.id
            outcomes.append(call(cli, inst, self._path(idx)))
        wall = time.perf_counter() - start
        self.tracer.instance = None
        return wall, outcomes

    def one_pass(self, pass_no: int) -> list:
        cli = self.setup(pass_no, traced=False)
        wall, outcomes = self.timed_pass(cli, traced=False)
        self.run.campaign_s.append(wall)
        self.run.instance_s.extend(o.seconds for o in outcomes)
        return self._record(outcomes, pass_no)

    def one_traced_pass(self, pass_no: int) -> None:
        """The same inputs untraced, then traced; counts come from pass 0."""
        untraced = self.one_pass(pass_no)
        first = len(self.tracer.spans)
        cli = self.setup(pass_no, traced=True)
        self.tracer.counting = pass_no == 0
        wall, outcomes = self.timed_pass(cli, traced=True)
        self.tracer.counting = False
        if self._record(outcomes, pass_no=None) != untraced:
            self.run.failures.append(("traced pass", "reports differ from the untraced pass"))
        self.run.traced_campaign_s.append(wall)
        self.run.layer.append(
            layer_metrics(self.tracer.spans, first, {inst.id for inst in self.instances})
        )
        if pass_no == 0:
            self.run.counts = count_metrics(self.tracer)
            self.run.span_count = len(self.tracer.spans) - first

    def measure(self, seconds: float, traced: bool) -> Run:
        start = time.perf_counter()
        pass_no = 0
        while True:
            (self.one_traced_pass if traced else self.one_pass)(pass_no)
            pass_no += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / pass_no > seconds:
                break
        while not traced and (
            len(self.run.setup_s) < MIN_SETUPS
            or time.perf_counter() - start + statistics.median(self.run.setup_s) <= seconds
        ):
            self.setup(pass_no, traced=False)
            pass_no += 1
        return self.run

    def _path(self, idx: int) -> Path:
        return self.workdir / f"{idx}.json"

    def _record(self, outcomes: list[Outcome], pass_no: int | None) -> list:
        """Check outcomes and return their digests.

        Pass 0 of the untraced passes gives the run's digest, which must match
        the recorded one under DIGEST_SEED.
        """
        expected = {}
        if pass_no == 0 and not self.smoke and self.seed == DIGEST_SEED:
            expected = load_digests()[self.workload.name]
        shas = []
        for outcome in outcomes:
            self.run.attempted += 1
            why, sha = check(outcome)
            shas.append(sha)
            iid = outcome.instance.id
            if pass_no == 0:
                self.run.digests.append((iid, sha))
            if why is None and expected and sha != expected["instances"].get(iid):
                why = f"report digest {sha} differs from the recorded one"
            if why is not None:
                self.run.failures.append((iid, why))
        if expected:
            ok = workload_digest(self.run.digests) == expected["sha256"]
            self.run.digest_status = "matches" if ok else "DIFFERS"
        return shas


# -- metrics ----------------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run: Run) -> dict:
    return {
        "campaign_s": (statistics.median(run.campaign_s), "s"),
        "instance_p90_s": (percentile(run.instance_s, 0.9)[0], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(run.setup_s), "s"),
    }


def per_layer(run: Run) -> dict:
    """Times are medians over traced passes; counts are pass 0's, exact."""
    out = {}
    for name in run.layer[0]:
        out[name] = (statistics.median(p[name] for p in run.layer), "s")
    for name, value in run.counts.items():
        unit = "ratio" if name.endswith("_ratio") else "bits" if name.endswith("_bits") else "count"
        out[name] = (value, unit)
    # Traced minus untraced time of a pass on the same inputs.  Host noise
    # can exceed the overhead, so this can come out negative.
    overhead = statistics.median(t - u for t, u in zip(run.traced_campaign_s, run.campaign_s))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def summary_lines(run: Run, traced: bool) -> list[str]:
    n = len(run.instance_s)
    p50, _ = percentile(run.instance_s, 0.5)
    _, resolved = percentile(run.instance_s, 0.9)
    failed = len(run.failures)
    lines = [
        f"{run.workload} seed={run.seed}: {len(run.campaign_s)} passes, "
        f"{len(run.setup_s)} set-ups, {run.attempted} instances attempted, "
        f"{failed} failed (failed_frac {failed / max(run.attempted, 1):.4f})",
        f"campaign_s per pass: {', '.join(f'{x:.3f}' for x in run.campaign_s)}",
        f"setup_s: median {statistics.median(run.setup_s):.4f} over {len(run.setup_s)} set-ups, "
        f"min {min(run.setup_s):.4f}, max {max(run.setup_s):.4f}",
        f"instance p50 {p50:.4f} s over {n} samples; instance_p90_s "
        + ("resolved" if resolved else f"unresolved (fewer than {TAIL_SAMPLES} samples above it)"),
        f"report digest of pass 0: {workload_digest(run.digests)} ({run.digest_status})",
    ]
    if traced:
        lines.append(
            "untraced / traced pass, s: "
            + ", ".join(f"{u:.3f} / {t:.3f}" for u, t in zip(run.campaign_s, run.traced_campaign_s))
            + f"; {run.span_count} spans and the counts are pass 0's"
        )
    lines += [f"FAILED {iid}: {why}" for iid, why in run.failures]
    return lines
