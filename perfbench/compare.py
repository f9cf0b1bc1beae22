#!/usr/bin/env python3
"""Compare two saved benchmark outputs.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file is the standard output of one benchmark run. The script prints
every metric of both runs with the ratio NEW/BASE, lists every exact work
count that differs, and warns when the two host fingerprints differ, since
host times taken on different hosts or toolchains do not compare.
"""

import json
import sys


def load(path):
    parts = {}
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.startswith("{")]
    for line in lines:
        obj = json.loads(line)
        if "metrics" in obj:
            parts["result"] = obj
        else:
            parts.update(obj)
    missing = {"fingerprint", "work_counts", "result"} - parts.keys()
    if missing:
        sys.exit(f"{path}: no {', '.join(sorted(missing))} line")
    return parts


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])

    diff = [
        k
        for k in sorted(base["fingerprint"].keys() | new["fingerprint"].keys())
        if base["fingerprint"].get(k) != new["fingerprint"].get(k)
    ]
    host_keys = [k for k in diff if k != "source_digest" and k != "git_commit"]
    if host_keys:
        print("WARNING: different host fingerprints; host times do not compare:")
        for k in host_keys:
            print(f"  {k}: {base['fingerprint'].get(k)!r} -> {new['fingerprint'].get(k)!r}")
    for k in diff:
        if k not in host_keys:
            print(f"program {k}: {base['fingerprint'].get(k)} -> {new['fingerprint'].get(k)}")

    counts = [
        (k, base["work_counts"].get(k), new["work_counts"].get(k))
        for k in sorted(base["work_counts"].keys() | new["work_counts"].keys())
    ]
    changed = [(k, a, b) for k, a, b in counts if a != b]
    print(f"work counts: {len(counts) - len(changed)} identical, {len(changed)} differ")
    for k, a, b in changed:
        print(f"  {k}: {a} -> {b}")

    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for k in list(bm) + [k for k in nm if k not in bm]:
        a = bm.get(k, {}).get("value")
        b = nm.get(k, {}).get("value")
        unit = (bm.get(k) or nm.get(k))["unit"]
        ratio = f"{b / a:.4f}" if a and b is not None else "-"
        print(f"  {k:32s} {a!s:>22} {b!s:>22} {unit:>10}  x{ratio}")
    for side, r in (("base", base["result"]), ("new", new["result"])):
        if not r["correct"] or r["failed"]:
            print(f"{side}: {r['failed']} of {r['attempted']} cells failed a check")


if __name__ == "__main__":
    main()
