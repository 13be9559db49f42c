#!/usr/bin/env python3
"""Print each JSON path whose value differs between the same-named `*.json`
files under two `output_digest.py` output directories, so a refactor can show
which manifest fields moved when the digest reports a manifest changed.

Each file is normalized as the digest normalizes it (`wall_time` dropped,
the output directory written as `OUT`).  A path joins keys with `.` and
collapses list indices to `[]`, so `rows[].overall` stands for every row.
Each differing path is printed once, with the number of files it differs in;
a key or file on one side only is a difference too.  The exit status is 0
when nothing differs and 1 otherwise, as for `diff`.

Usage:
  python scripts/manifest_diff.py DIR_A DIR_B
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from output_digest import _normalized


def differing_paths(a, b, path="") -> set[str]:
    """The paths under ``path`` at which JSON values ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = set()
        for key in a.keys() | b.keys():
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                found |= differing_paths(a[key], b[key], sub)
            else:
                found.add(sub)
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(differing_paths(x, y, path + "[]") for x, y in zip(a, b)))
    # json.dumps tells 1 from 1.0 and true, and one NaN equals another.
    return {path or "(root)"} if json.dumps(a) != json.dumps(b) else set()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args()
    roots = [Path(d).resolve() for d in (args.dir_a, args.dir_b)]
    for root in roots:
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    names = [{p.relative_to(root) for p in root.rglob("*.json")} for root in roots]
    lines = [f"only in {side}: {name}"
             for side, ours, theirs in (("A", *names), ("B", *names[::-1]))
             for name in sorted(ours - theirs)]
    counts = Counter()
    for name in sorted(names[0] & names[1]):
        a, b = (_normalized(json.loads((root / name).read_text()), str(root)) for root in roots)
        counts.update(differing_paths(a, b))
    lines += [f"{path}  {n}" for path, n in sorted(counts.items())]
    print("\n".join(lines) if lines else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
