"""Run the hrlab benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload hr-grid --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports hrlab from that checkout's
src/.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run.  Scratch files go to .perfbench_work/ and span dumps
to .perfbench_out/, both under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from campaign import (
    ROOT,
    Campaign,
    CheckoutError,
    end_to_end,
    per_layer,
    summary_lines,
    use_checkout,
)
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    campaign = Campaign(args.workload, args.seed, workdir)
    try:
        run = campaign.measure(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        outdir = ROOT / ".perfbench_out"
        outdir.mkdir(exist_ok=True)
        path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        campaign.tracer.dump(path)
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run)
    for line in summary_lines(run, bool(args.trace)):
        print(line)
    if args.trace:
        print(f"spans written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
