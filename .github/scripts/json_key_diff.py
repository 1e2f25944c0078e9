"""Print the key paths that differ between the JSON artifacts of two runs.

    python3 json_key_diff.py BASE_DIR HEAD_DIR

For each ``*.json`` file of either directory whose bytes differ (all but
``run_meta.json``, which holds timings), prints one line per kind of
difference: the key paths that HEAD_DIR's file added, removed or
changed.  List indices print as ``[i]``, with the number of entries a
path covers when it is above 1, so a key that moved out of every record
of a list prints once.  Prints nothing when no JSON file differs.
"""
import json
import os
import sys
from collections import Counter


def walk(a, b, path, found):
    """Add ``(kind, path)`` to ``found`` for every difference of b from a."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            sub = f"{path}.{k}" if path else k
            if k not in b:
                found[("removed", sub)] += 1
            elif k not in a:
                found[("added", sub)] += 1
            else:
                walk(a[k], b[k], sub, found)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            sub = f"{path}[i]"
            if i >= len(b):
                found[("removed", sub)] += 1
            elif i >= len(a):
                found[("added", sub)] += 1
            else:
                walk(a[i], b[i], sub, found)
    elif json.dumps(a) != json.dumps(b):     # tells 1 from 1.0 and NaN from NaN
        found[("changed", path or "(the whole file)")] += 1


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def main(base_dir, head_dir):
    names = {n for d in (base_dir, head_dir) if os.path.isdir(d) for n in os.listdir(d)}
    for name in sorted(n for n in names if n.endswith(".json") and n != "run_meta.json"):
        paths = [os.path.join(d, name) for d in (base_dir, head_dir)]
        raw = [read(p) if os.path.exists(p) else None for p in paths]
        if raw[0] == raw[1]:
            continue
        if None in raw:
            print(f"`{name}` {'added' if raw[0] is None else 'removed'} as a whole")
            continue
        found = Counter()
        walk(*map(json.loads, raw), "", found)
        for kind in ("added", "removed", "changed"):
            keys = [f"`{p}`" + (f" ({n})" if n > 1 else "")
                    for (k, p), n in found.items() if k == kind]
            if keys:
                print(f"`{name}` {kind}: {', '.join(keys)}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
