#!/usr/bin/env python3
"""Checks BENCH_*.json files: each starts with its env block and every
byte-identity flag in it is true.

Run from the repository root:

    python3 tools/check_bench_json.py BENCH_*.json
    python3 tools/check_bench_json.py --require-flags BENCH_io.json

The env block is the one bench/bench_util.h writes as each file's first
key. A flag is any key named `identical` or ending in `_identical`, at
any depth; --require-flags fails a file that has no flag at all. Exits 1
when any check fails.
"""
import argparse
import json
import re
import sys

ENV_KEYS = ["nproc", "compiler", "build_type", "git_sha"]
IDENTICAL = re.compile(r"(^|_)identical")


def flags(node, path):
    """Yields (where, value) for every identity flag under `node`."""
    if isinstance(node, dict):
        for k, v in node.items():
            if IDENTICAL.search(k):
                yield f"{path}.{k}", v
            yield from flags(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from flags(v, f"{path}[{i}]")


def env_problems(name, doc):
    if not isinstance(doc, dict) or list(doc)[:1] != ["env"]:
        return [f"{name}: 'env' is not the first key"]
    env = doc["env"]
    if sorted(env) != sorted(ENV_KEYS):
        return [f"{name}: env keys {sorted(env)}, want {ENV_KEYS}"]
    if not isinstance(env["nproc"], int) or env["nproc"] < 1:
        return [f"{name}: env.nproc {env['nproc']!r} < 1"]
    return []


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("files", nargs="+")
    p.add_argument("--require-flags", action="store_true",
                   help="fail a file that has no identity flag")
    args = p.parse_args()

    bad = []
    for name in args.files:
        try:
            with open(name) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            bad.append(f"{name}: {e}")
            continue
        bad += env_problems(name, doc)
        found = list(flags(doc, name))
        bad += [f"{where} is {value!r}, want true" for where, value in found
                if value is not True]
        if args.require_flags and not found:
            bad.append(f"{name}: no identical flag found")
        print(f"{name}: {len(found)} identical flags checked")
    for line in bad:
        print("check_bench_json:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
