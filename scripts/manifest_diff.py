#!/usr/bin/env python3
"""Print each JSON path whose value differs between the same-named `*.json`
files under two `output_digest.py` output directories, and how far apart the
same-named `*.evslat` latent files are, so a change can show which manifest
fields moved, and by how much, when the digest reports a file changed.

Each JSON file is normalized as the digest normalizes it (`wall_time`
dropped, the output directory written as `OUT`).  A path joins keys with `.`
and collapses list indices to `[]`, so `rows[].overall` stands for every row.
Each differing path is printed once, with the number of files it differs in
and, where both values are numbers, the largest relative difference
`|a - b| / max(|a|, |b|)` over them.  Each latent file whose videos differ is
printed with its largest absolute difference, then one `latents` line with
the number of such files, the number compared and the overall maximum.  A
key or file on one side only is a difference too.  The exit status is 0
when nothing differs and 1 otherwise, as for `diff`.

Usage:
  python scripts/manifest_diff.py DIR_A DIR_B
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from evs.io import read_latents
from output_digest import _normalized


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def differing_paths(a, b, path="") -> dict[str, float | None]:
    """The paths under ``path`` at which JSON values ``a`` and ``b`` differ,
    each with the largest relative difference of its numbers (None if none)."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = {}
        for key in a.keys() | b.keys():
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _merge(found, differing_paths(a[key], b[key], sub))
            else:
                found[sub] = None
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        found = {}
        for x, y in zip(a, b):
            _merge(found, differing_paths(x, y, path + "[]"))
        return found
    # json.dumps tells 1 from 1.0 and true, and one NaN equals another.
    if json.dumps(a) == json.dumps(b):
        return {}
    rel = None
    if _is_number(a) and _is_number(b):
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale else 0.0
    return {path or "(root)": rel}


def _merge(found: dict, more: dict):
    """Add ``more``'s paths to ``found``, keeping each path's largest number."""
    for path, rel in more.items():
        old = found.get(path)
        found[path] = rel if old is None else old if rel is None else max(old, rel)


def latent_difference(path_a: Path, path_b: Path) -> float | str:
    """The largest absolute difference between two latent files' videos, or
    a description of why they cannot be compared value by value."""
    a, b = read_latents(path_a), read_latents(path_b)
    shapes = [(len(x), *x[0].shape) for x in (a, b)]
    if shapes[0] != shapes[1]:
        return f"shapes {shapes[0]} vs {shapes[1]}"
    return float(max(np.abs(x - y).max() for x, y in zip(a, b)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args()
    roots = [Path(d).resolve() for d in (args.dir_a, args.dir_b)]
    for root in roots:
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    names = [{p.relative_to(root) for pattern in ("*.json", "*.evslat") for p in root.rglob(pattern)}
             for root in roots]
    lines = [f"only in {side}: {name}"
             for side, ours, theirs in (("A", *names), ("B", *names[::-1]))
             for name in sorted(ours - theirs)]
    common = sorted(names[0] & names[1])
    counts, rels = Counter(), {}
    for name in (n for n in common if n.suffix == ".json"):
        a, b = (_normalized(json.loads((root / name).read_text()), str(root)) for root in roots)
        found = differing_paths(a, b)
        counts.update(found.keys())
        _merge(rels, found)
    lines += [f"{path}  {n}" + ("" if rels[path] is None else f"  max rel {rels[path]:.3g}")
              for path, n in sorted(counts.items())]
    latents = [n for n in common if n.suffix == ".evslat"]
    worst, differing = 0.0, 0
    for name in latents:
        diff = latent_difference(*(root / name for root in roots))
        if diff == 0.0:
            continue
        differing += 1
        if isinstance(diff, str):
            lines.append(f"{name}  {diff}")
        else:
            lines.append(f"{name}  max abs {diff:.3g}")
            worst = max(worst, diff)
    if differing:
        lines.append(f"latents  {differing} of {len(latents)} differ, max abs {worst:.3g}")
    print("\n".join(lines) if lines else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
