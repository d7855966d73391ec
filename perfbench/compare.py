"""Compare two stamped benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records and the after/before ratio.  Refuses
(exit 2) when the records come from different host fingerprints,
workloads, seeds or run settings: numbers from different machines, inputs
or settings are not a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from record import comparable


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before = json.loads(args.before.read_text())
    after = json.loads(args.after.read_text())
    reason = comparable(before, after)
    if reason is not None:
        print(f"error: refusing to compare: {reason}", file=sys.stderr)
        return 2
    print(f"{before['workload']} seed {before['seed']}: source "
          f"{before['stamp']['source_digest']} -> {after['stamp']['source_digest']}")
    for name, entry in before["metrics"].items():
        old = entry["value"]
        new = after["metrics"].get(name, {}).get("value")
        shown = "-" if new is None else f"{new:.6g}"
        ratio = f"{new / old:.3f}x" if new is not None and old else "-"
        print(f"  {name:32s} {old:>14.6g} {shown:>14s} {ratio:>9s} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
