#!/usr/bin/env bash
# Strict-flag contract of the bench binaries, which parse through the same
# flag table as ursa_sim (src/common/flags.h): an unknown flag, a malformed
# number and a negative seed exit 2 and name the flag on stderr before any
# run starts. Registered in ctest as `bench_flags`.
#
# Usage: bench_flags.sh <bench-binary>...
set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <bench-binary>..." >&2
  exit 2
fi
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# expect_rejected <binary> <flag-name-on-stderr> <args...>: exit 2, flag
# named. A binary that accepts the value starts its sweep; the timeout
# bounds that.
expect_rejected() {
  local bin="$1"
  local name="$2"
  shift 2
  local got=0
  (cd "${WORKDIR}" && timeout 60 "${bin}" "$@") >"${WORKDIR}/out.txt" \
    2>"${WORKDIR}/err.txt" || got=$?
  if [ "${got}" -ne 2 ]; then
    tail -3 "${WORKDIR}/err.txt" >&2
    fail "expected exit 2, got ${got}: $(basename "${bin}") $*"
  fi
  grep -q -e "--${name}" "${WORKDIR}/err.txt" ||
    fail "$(basename "${bin}") $*: stderr does not name --${name}"
}

for bench in "$@"; do
  [ -x "${bench}" ] || fail "not an executable: ${bench}"
  bench="$(cd "$(dirname "${bench}")" && pwd)/$(basename "${bench}")"
  expect_rejected "${bench}" no-such-flag --no-such-flag
  case "$(basename "${bench}")" in
    bench_table2_tpch)
      # Takes only the trace flags.
      expect_rejected "${bench}" trace-sample --trace-sample=abc
      expect_rejected "${bench}" seed --seed=1
      continue
      ;;
    bench_policy_compare | bench_overload | bench_straggler_mitigation)
      expect_rejected "${bench}" jobs --jobs=abc
      expect_rejected "${bench}" jobs --jobs=5x --mults=0.5
      ;;
  esac
  expect_rejected "${bench}" seed --seed=-1
  expect_rejected "${bench}" seed --seed=12x
done

echo "PASS: $# bench binaries reject bad flags with exit 2"
exit 0
