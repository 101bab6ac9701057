"""Record the exact outputs the CLI workloads are checked against.

Run from the repository root:

    python3 perfbench/record_goldens.py

The goldens in ``perfbench/goldens/`` were recorded at the commit that
added the benchmark.  Re-record them only when an output format changes on
purpose; a golden re-recorded to absorb a changed number hides a bug.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    out = workloads.GOLDEN_DIR
    out.mkdir(exist_ok=True)
    for wl, name in ((workloads.Scatter(), "scatter_m3_order20.json"),
                     (workloads.Refined(), "refined_m3_dmax4.json")):
        code, text = workloads.run_cli(wl.argv)
        if code != 0:
            print(f"error: {' '.join(wl.argv)} exited {code}", file=sys.stderr)
            return 1
        (out / name).write_text(text)
    code, text = workloads.run_cli(workloads.Verify.argv)
    passed = sum(line.startswith("PASS ") for line in text.splitlines())
    if code != 0 or "FAIL" in text:
        print("error: verify --suite all reported a failure", file=sys.stderr)
        return 1
    (out / "verify_all.json").write_text(json.dumps({"total": passed}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
