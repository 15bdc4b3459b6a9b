#!/usr/bin/env bash
# Host-time profile of the simulator, rolled up by layer.
#
#   scripts/profile.sh
#
# Builds fig5_kernel_compile and tab2_events with -pg in their own tree
# (BUILD_DIR, default build-profile; Release flags plus -pg), runs each
# once with its default arguments, and prints from gprof's flat profile:
#   - self % and call counts per namespace (nova::hw, nova::hv, std, ...);
#   - the same per scope (class or namespace holding the function);
#   - the 15 functions by self time.
# Self % is sampled and moves from run to run. Call counts are exact:
# they count out-of-line calls only (an inlined call is not a call), so
# they show work that a change removed whatever the host's noise. The
# bench binaries' stdout and gprof's full flat profile stay in
# BUILD_DIR/profile-<bench>/ (stdout.txt, flat.txt).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-profile}"
BENCHES=(fig5_kernel_compile tab2_events)

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${BENCHES[@]}" > /dev/null

for bench in "${BENCHES[@]}"; do
  run="${BUILD_DIR}/profile-${bench}"
  rm -rf "${run}"
  mkdir -p "${run}"
  # gprof's gmon.out lands in the working directory.
  (cd "${run}" && "../bench/${bench}" > stdout.txt)
  gprof -b -p "${BUILD_DIR}/bench/${bench}" "${run}/gmon.out" > "${run}/flat.txt"
  echo "== ${bench} =="
  python3 - "${run}/flat.txt" <<'EOF'
import collections
import re
import sys

path = sys.argv[1]
TOP = 15
# %time cumulative self [calls self/call total/call] name
row = re.compile(r"^\s*([\d.]+)\s+[\d.]+\s+([\d.]+)\s+(?:(\d+)\s+\S+\s+\S+\s+)?(\S.*)$")


def strip_nested(name):
    """The qualified name without return type, template arguments,
    parameter lists, lambda names or a trailing const."""
    out, depth = [], 0
    for ch in name:
        if ch in "<({":
            depth += 1
        elif ch in ">)}":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    bare = "".join(out).strip()
    if bare.endswith(" const"):
        bare = bare[: -len(" const")]
    return bare.split(" ")[-1]


funcs = []
with open(path) as f:
    for line in f:
        m = row.match(line)
        if m:
            pct, _self_s, calls, name = m.groups()
            funcs.append((float(pct), int(calls or 0), name.strip()))

by_ns = collections.defaultdict(lambda: [0.0, 0])
by_scope = collections.defaultdict(lambda: [0.0, 0])
for pct, calls, name in funcs:
    parts = strip_nested(name).split("::")
    scope = "::".join(parts[:-1]) or "(global)"
    ns = "::".join(parts[:2]) if parts[0] == "nova" and len(parts) > 2 else parts[0] if len(parts) > 1 else "(global)"
    for table, key in ((by_ns, ns), (by_scope, scope)):
        table[key][0] += pct
        table[key][1] += calls


def show(title, table, limit):
    print("  %-44s %7s %14s" % (title, "self %", "calls"))
    for key, (pct, calls) in sorted(table.items(), key=lambda kv: -kv[1][0])[:limit]:
        print("  %-44s %7.2f %14d" % (key[:44], pct, calls))
    print()


show("namespace", by_ns, TOP)
show("scope", by_scope, TOP)
print("  %-44s %7s %14s" % ("function", "self %", "calls"))
for pct, calls, name in sorted(funcs, key=lambda t: -t[0])[:TOP]:
    print("  %-44s %7.2f %14d" % (strip_nested(name)[:44], pct, calls))
print()
EOF
done
