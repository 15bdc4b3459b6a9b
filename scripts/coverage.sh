#!/usr/bin/env bash
# Line coverage of src/ over the tier-1 suite, smoke benches included.
#
#   scripts/coverage.sh [src/FILE ...]
#
# Builds with --coverage in its own tree (BUILD_DIR, default
# build-coverage), runs every ctest test (unit, integration, lint,
# compile_fail and the `-L smoke` bench runs), then reads gcov's JSON
# for every object file. A header is compiled into many translation
# units; its lines are merged across them, so a line counts as run when
# any unit ran it. Prints the total for src/ and one row per file, then
# the never-run line numbers of each FILE given as an argument.
#
# Report only: there is no threshold. The exit status is ctest's.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-coverage}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# Counts accumulate across runs; start from zero.
find "${BUILD_DIR}" -name '*.gcda' -delete
status=0
ctest --test-dir "${BUILD_DIR}" -j "$(nproc)" --output-on-failure || status=$?

python3 - "${BUILD_DIR}" "$@" <<'EOF'
import concurrent.futures
import json
import os
import subprocess
import sys

build, show = os.path.abspath(sys.argv[1]), sys.argv[2:]
src = os.path.join(os.getcwd(), "src") + os.sep

gcdas = [os.path.join(d, f) for d, _, fs in os.walk(build)
         for f in fs if f.endswith(".gcda")]


def gcov(path):
    # --stdout prints one JSON document per object file.
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "-o", os.path.dirname(path), path],
        capture_output=True, text=True, check=True, cwd=build).stdout
    return [json.loads(doc) for doc in out.splitlines() if doc.strip()]


lines = {}  # file -> {line number: run by any unit}
with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
    for docs in pool.map(gcov, gcdas):
        for doc in docs:
            for f in doc["files"]:
                name = os.path.normpath(
                    os.path.join(doc["current_working_directory"], f["file"]))
                if not name.startswith(src):
                    continue
                if not f["lines"]:
                    continue  # Declarations only: nothing to run.
                seen = lines.setdefault(os.path.relpath(name), {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    seen[n] = seen.get(n, False) or ln["count"] > 0

total = sum(len(s) for s in lines.values())
run = sum(sum(s.values()) for s in lines.values())
print(f"src/ line coverage: {run}/{total} = {100.0 * run / max(total, 1):.1f}%")
for name in sorted(lines):
    s = lines[name]
    print(f"  {100.0 * sum(s.values()) / len(s):5.1f}%  "
          f"{sum(s.values()):5d}/{len(s):<5d}  {name}")
for name in show:
    unrun = sorted(n for n, hit in lines.get(os.path.normpath(name), {}).items()
                   if not hit)
    print(f"never run in {name}: {' '.join(map(str, unrun)) or '-'}")
EOF
exit "${status}"
