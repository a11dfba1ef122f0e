#!/usr/bin/env python3
"""Compare two run records written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records with the change as a share of the
first, and flags every stamp field that differs: a differing
environment field (cores, BLAS, threads, numpy, Python) makes the
timings incomparable; differing identity fields (commit, seed) are
listed for the record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from envstamp import stamp_differences  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    diff = stamp_differences(a["stamp"], b["stamp"])
    for field in diff["environment"]:
        print(f"WARNING: environment differs in {field}: "
              f"{a['stamp'].get(field)!r} vs {b['stamp'].get(field)!r}")
    for field in diff["identity"]:
        print(f"note: {field}: {a['stamp'].get(field)!r} vs {b['stamp'].get(field)!r}")
    print(f"{'metric':48} {'before':>12} {'after':>12} {'change':>8}")
    for name, before in a["metrics"].items():
        after = b["metrics"].get(name)
        if after is None:
            print(f"{name:48} {before:12.6g} {'missing':>12}")
            continue
        change = f"{100 * (after - before) / before:+.1f}%" if before else ""
        print(f"{name:48} {before:12.6g} {after:12.6g} {change:>8}")
    return 1 if diff["environment"] else 0


if __name__ == "__main__":
    sys.exit(main())
