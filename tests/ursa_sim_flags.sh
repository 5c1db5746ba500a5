#!/usr/bin/env bash
# Strict-flag contract of ursa_sim (tools/ursa_sim.cc header): an unknown
# flag, a removed flag or an out-of-range value exits 2 (the usage exit code)
# and names the offending flag on stderr; a valid short run exits 0.
# Registered in ctest as `ursa_sim_flags`.
#
# Usage: ursa_sim_flags.sh <path-to-ursa_sim>
set -u

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 <path-to-ursa_sim>" >&2
  exit 2
fi
URSA_SIM="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# expect_rejected <flag-name-on-stderr> <args...>: exit 2, flag named.
expect_rejected() {
  local name="$1"
  shift
  local got=0
  "${URSA_SIM}" "$@" >"${WORKDIR}/out.txt" 2>"${WORKDIR}/err.txt" || got=$?
  if [ "${got}" -ne 2 ]; then
    cat "${WORKDIR}/err.txt" >&2
    fail "expected exit 2, got ${got}: $*"
  fi
  grep -q -e "--${name}" "${WORKDIR}/err.txt" ||
    fail "stderr does not name --${name}: $(head -1 "${WORKDIR}/err.txt")"
}

expect_rejected no-such-flag --no-such-flag
# Removed hot-path switches (one event queue and one placement path remain).
for removed in event-queue=calendar hotpath=seed; do
  expect_rejected "${removed%%=*}" "--${removed}"
done
expect_rejected jobs --jobs=0
# Malformed numbers, a negative unsigned seed and a switch given a value.
expect_rejected jobs --jobs=abc
expect_rejected seed --seed=-1
expect_rejected seed --seed=12x
expect_rejected spec --spec=1

got=0
"${URSA_SIM}" --workload=tpch --jobs=2 --workers=4 >"${WORKDIR}/out.txt" 2>&1 || got=$?
if [ "${got}" -ne 0 ]; then
  cat "${WORKDIR}/out.txt" >&2
  fail "valid short run exited ${got}"
fi

echo "PASS: ursa_sim rejects bad flags with exit 2 and runs valid flags"
exit 0
