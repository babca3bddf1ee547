"""Record the canonical reports of a fixed set of CLI commands.

    python3 tests/record_golden.py

Writes one file per command to tests/golden/: the command line, its exit
code and its report without the `timing` field.  tests/test_golden.py reruns
every command in-process and requires the same exit code and report, so a
change that moves any verdict, signature or report field shows up there.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

GOLDEN = {
    "verify-hr": ["verify-hr", "--d", "2..4", "--e", "1..3", "--trials", "2", "--seed", "1"],
    "family-A": ["family", "--check", "A", "--d", "4", "--e", "2", "--seed", "1"],
    "family-B": ["family", "--check", "B", "--d", "4", "--e", "2", "--seed", "1"],
    "family-aug1": ["family", "--check", "aug1", "--d", "4", "--e", "2", "--seed", "1"],
    "family-aug2": ["family", "--check", "aug2", "--d", "4", "--e", "2", "--seed", "1"],
    "family-recursion": ["family", "--check", "recursion", "--d", "4", "--e", "2", "--seed", "3"],
    "family-remark-3.7": ["family", "--builtin", "remark-3.7"],
    "family-minkowski": ["family", "--builtin", "minkowski"],
    "gamma-scan": ["gamma-scan", "--d", "4", "--e", "2", "--grid", "4", "--trials", "2", "--seed", "1"],
}


def run(argv: list[str]) -> dict:
    """The command's argv, exit code and report with `timing` dropped."""
    from hrlab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main(argv + ["--out", str(out)])
        report = json.loads(out.read_text())
    report.pop("timing")
    return {"argv": argv, "exit_code": code, "report": report}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        golden_path(name).write_text(json.dumps(run(argv), sort_keys=True, indent=1) + "\n")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
