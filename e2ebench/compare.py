#!/usr/bin/env python3
"""Compares two e2ebench result documents (.bench_out/result-*.json)
metric by metric. Refuses results taken on different core counts or of
different workloads: their numbers do not mean the same thing.

    python3 e2ebench/compare.py BASE.json CHANGE.json
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in sys.argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    base, change = docs
    if base["stamp"]["nproc"] != change["stamp"]["nproc"]:
        print("refusing to compare results from %s and %s cores" %
              (base["stamp"]["nproc"], change["stamp"]["nproc"]),
              file=sys.stderr)
        return 1
    if base["workload"] != change["workload"]:
        print("refusing to compare workloads %s and %s" %
              (base["workload"], change["workload"]), file=sys.stderr)
        return 1
    for section in ("end_to_end", "per_layer"):
        if section not in base or section not in change:
            continue
        print(section)
        for name, metric in base[section].items():
            other = change[section].get(name)
            if other is None:
                continue
            a, b = metric["value"], other["value"]
            ratio = "%.3f" % (b / a) if a else "-"
            print("  %-34s %14.6g %14.6g %8s %s" %
                  (name, a, b, ratio, metric["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
