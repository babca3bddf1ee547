"""Record the report digests of pass 0 of every workload under DIGEST_SEED.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  A run of the benchmark under that seed then
counts every instance whose report differs (outside `config` and
`timing`) as failed.  Refuses to record while any instance fails its check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from campaign import DIGEST_SEED, DIGESTS, ROOT, Campaign, check, use_checkout, workload_digest
from workloads import WORKLOADS


def main() -> int:
    use_checkout()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        for name in WORKLOADS:
            campaign = Campaign(name, DIGEST_SEED, workdir)
            cli = campaign.setup(0, traced=False)
            _, outcomes = campaign.timed_pass(cli, traced=False)
            checked = [(o.instance.id, *check(o)) for o in outcomes]
            failed = [(iid, why) for iid, why, _ in checked if why is not None]
            if failed or campaign.run.failures:
                print(f"{name}: not recorded, failures {failed + campaign.run.failures}", file=sys.stderr)
                return 1
            shas = [(iid, sha) for iid, _, sha in checked]
            recorded[name] = {"sha256": workload_digest(shas), "instances": dict(shas)}
            print(f"{name}: {recorded[name]['sha256']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
