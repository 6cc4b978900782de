#!/usr/bin/env bash
# sanitize_check — build the repository with -DPATHLOAD_SANITIZE=ON
# (AddressSanitizer + UndefinedBehaviorSanitizer) in a build directory of
# its own and run that build's default ctest tier, so every gtest and every
# CLI smoke (the spec parser, the fuzz batch, the examples) runs under both
# sanitizers. A UBSan finding fails the test it occurs in (halt_on_error).
#
# Usage: sanitize_check.sh <repo_root> <build_dir> [jobs]
#
# Registered as the `sanitize_check` ctest in the `sanitize` configuration:
#   ctest -C sanitize -R sanitize_check --output-on-failure
# A plain `ctest` skips it.

set -euo pipefail

root=${1:?usage: sanitize_check.sh <repo_root> <build_dir> [jobs]}
build=${2:?usage: sanitize_check.sh <repo_root> <build_dir> [jobs]}
jobs=${3:-4}

cmake -S "$root" -B "$build" -DPATHLOAD_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$jobs"

export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}
cd "$build"
ctest --output-on-failure -j "$jobs"
