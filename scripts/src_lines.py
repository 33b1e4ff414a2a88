#!/usr/bin/env python3
"""Counts the lines of every .h/.cc file under src/ (the code-size side of the BENCH files).

    scripts/src_lines.py            print {"src_files", "src_lines"} as JSON
    scripts/src_lines.py --check    exit nonzero if the committed BENCH_src.json differs

bench/run_benchmarks.sh writes the printed JSON to BENCH_src.json; the CI `invariants`
job runs --check, so a change under src/ that does not refresh BENCH_src.json fails. The
count is the same one perfbench reports as `src_lines`.
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def count(src):
    files = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cc") and p.is_file())
    lines = 0
    for path in files:
        with open(path, "rb") as f:
            lines += sum(1 for _ in f)
    return {"src_files": len(files), "src_lines": lines}


def main(argv):
    if argv not in ([], ["--check"]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = count(REPO_ROOT / "src")
    if not argv:
        print(json.dumps(fresh, indent=2))
        return 0
    committed_path = REPO_ROOT / "BENCH_src.json"
    committed = json.loads(committed_path.read_text())
    if committed != fresh:
        print(f"BENCH_src.json is stale: committed {json.dumps(committed)}, tree "
              f"{json.dumps(fresh)}; regenerate it with scripts/src_lines.py > BENCH_src.json",
              file=sys.stderr)
        return 1
    print(f"BENCH_src.json matches the tree: {json.dumps(fresh)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
