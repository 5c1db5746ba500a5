#!/usr/bin/env bash
# compare reads its job count through the flag table (src/common/flags.h): a
# malformed or out-of-range --jobs exits 2 and names the flag before any run
# starts, and so does a bare positional count. Registered in ctest as
# `compare_flags`.
#
# Usage: compare_flags.sh <compare-binary>
set -u

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <compare-binary>" >&2
  exit 2
fi
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

# expect_rejected <name-on-stderr> <args...>: exit 2, the name on stderr.
expect_rejected() {
  local name="$1"
  shift
  local got=0
  timeout 60 "${COMPARE}" "$@" >"${WORKDIR}/out.txt" 2>"${WORKDIR}/err.txt" || got=$?
  if [ "${got}" -ne 2 ]; then
    tail -3 "${WORKDIR}/err.txt" >&2
    echo "FAIL: expected exit 2, got ${got}: compare $*" >&2
    exit 1
  fi
  if ! grep -q -e "${name}" "${WORKDIR}/err.txt"; then
    echo "FAIL: compare $*: stderr does not name ${name}" >&2
    exit 1
  fi
}

COMPARE="$1"
expect_rejected --jobs --jobs=abc
expect_rejected --jobs --jobs=5x
expect_rejected --jobs --jobs=0
expect_rejected 60 60
echo "compare flags ok"
