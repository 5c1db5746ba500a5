#!/usr/bin/env bash
# Lineage recovery across failure episodes under a lossy control plane and
# speculation: a worker crash-recover drops the outputs of completed tasks
# that no consumer needed at the time, and a later crash must re-run those
# producers once a reset consumer needs them again; otherwise the run aborts
# on `missing partition metadata` in MetadataStore::Get.
# Asserts exit 0 and that all 60 jobs are in the summary. Registered in
# ctest as `ursa_sim_lineage_chaos`.
#
# Usage: ursa_sim_lineage_chaos.sh <path-to-ursa_sim>
set -u

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 <path-to-ursa_sim>" >&2
  exit 2
fi
URSA_SIM="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

status=0
"${URSA_SIM}" --workload=tpch --jobs=60 --fault-horizon=150 --fault-seed=11 \
  --fault-crashes=1 --fault-recovers=1 --fault-transients=5 --msg-loss=0.01 \
  --msg-dup=0.01 --msg-delay=0.02 --spec >"${WORKDIR}/out.txt" 2>&1 || status=$?
if [ "${status}" -ne 0 ]; then
  tail -5 "${WORKDIR}/out.txt" >&2
  echo "FAIL: ursa_sim exited ${status}" >&2
  exit 1
fi
# Summary row: scheme, then the number of jobs that finished.
if ! grep -Eq '^ursa-ejf +60 ' "${WORKDIR}/out.txt"; then
  head -3 "${WORKDIR}/out.txt" >&2
  echo "FAIL: summary does not report 60 finished jobs" >&2
  exit 1
fi
echo "PASS: chaos + speculation run finished all 60 jobs"
exit 0
