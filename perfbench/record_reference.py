"""Write reference_values.json: the checked outputs of every workload at the
default seed and full size, as the current library computes them.

    python3 perfbench/record_reference.py

The benchmark compares later runs at seed 0 against this file, so re-record
only when the benchmark's workloads change, never to absorb a change in the
library's outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS  # noqa: E402


def main() -> int:
    workloads.COMPARE_RECORDED = False   # check against the independent references only
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, cls in WORKLOADS.items():
            wl = cls(DEFAULT_SEED, "full", Path(tmp) / name)
            wl.setup()
            unit = wl.unit()
            errors = wl.check(unit)
            if errors or unit.failed:
                print(f"{name}: not recorded, checks failed: {errors}", file=sys.stderr)
                return 1
            recorded[name] = wl.record(unit)
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
