#!/usr/bin/env bash
# Reachability report: which jamm:: functions does no runnable program link?
#
# Builds the repository (libraries, tests, benches, examples) and perfbench,
# each in its own tree under the build dir, at -O0 with one section per
# function and -Wl,--gc-sections, so a linked binary keeps only the
# functions reachable from its entry points, static initializers and the
# vtables it uses. It then compares the jamm:: text symbols (nm types T, t
# and W) that the libjamm_*.a archives define with the ones the binaries
# keep, and prints two lists of function names (parameters dropped, so
# overloads and constructor variants fold into one name):
#
#   1. functions linked by no example, bench or perfbench;
#   2. functions linked by no binary at all, tests included.
#
# Destructors, assignment operators and jamm::Result<T> instantiations are
# left out of both lists: the compiler emits them for every class that has
# them, whether or not anyone needs one out of line. Local (t) symbols of
# the same name in two files count as one. A report, not a gate: it exits 0
# whatever it finds.
#
# Usage: scripts/reachability.sh [build-dir]   (default: build-reach)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-reach}"
flags="-O0 -ffunction-sections -fdata-sections"
link_flags="-Wl,--gc-sections"

configure_and_build() {  # <source dir> <build dir> [targets...]
  local src="$1" out="$2"
  shift 2
  cmake -B "$out" -S "$src" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link_flags" \
    >/dev/null
  if [ "$#" -gt 0 ]; then
    cmake --build "$out" -j "$(nproc)" --target "$@" >/dev/null
  else
    cmake --build "$out" -j "$(nproc)" >/dev/null
  fi
}

echo "reachability: building $build_dir/main and $build_dir/perfbench" >&2
configure_and_build "$repo_root" "$build_dir/main"
configure_and_build "$repo_root/perfbench" "$build_dir/perfbench" jamm_perfbench

executables() {  # <dir>: the executables directly inside it
  find "$1" -maxdepth 1 -type f -perm -u+x | sort
}

python3 - "$build_dir" \
  <(find "$build_dir/main/src" -name 'libjamm_*.a' | sort) \
  <(executables "$build_dir/main/examples"; executables "$build_dir/main/bench";
    echo "$build_dir/perfbench/jamm_perfbench") \
  <(executables "$build_dir/main/tests") <<'EOF'
import re
import subprocess
import sys

_, build_dir, libs_file, demos_file, tests_file = sys.argv
JAMM = re.compile(r"^_ZN[KVRO]*4jamm")


def lines(path):
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def text_symbols(paths):
    """Mangled jamm:: function symbols the given objects define."""
    out = set()
    for path in paths:
        nm = subprocess.run(["nm", "--defined-only", path],
                            capture_output=True, text=True, check=True)
        for row in nm.stdout.splitlines():
            parts = row.split()
            if len(parts) == 3 and parts[1] in "TtW" and JAMM.match(parts[2]):
                out.add(parts[2])
    return out


def names(symbols):
    """Distinct function names (no parameters), reported kinds only."""
    ordered = sorted(symbols)
    demangled = subprocess.run(["c++filt", "-p"], input="\n".join(ordered),
                               capture_output=True, text=True,
                               check=True).stdout.splitlines()
    keep = set()
    for name in demangled:
        if "~" in name or "operator=" in name or name.startswith("jamm::Result<"):
            continue
        keep.add(name)
    return sorted(keep)


demos, tests = lines(demos_file), lines(tests_file)
library = text_symbols(lines(libs_file))
in_demos = text_symbols(demos)
in_any = in_demos | text_symbols(tests)

unlinked_demo = names(library - in_demos)
unlinked_any = names(library - in_any)
print(f"# {len(demos)} example/bench/perfbench binaries, {len(tests)} test "
      f"binaries; {len(names(library))} library function names")
print(f"# 1. linked by no example, bench or perfbench: {len(unlinked_demo)}")
for name in unlinked_demo:
    print(f"demo-unlinked  {name}")
print(f"# 2. linked by no binary, tests included: {len(unlinked_any)}")
for name in unlinked_any:
    print(f"unlinked       {name}")
EOF
