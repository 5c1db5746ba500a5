// Metadata store of section 4.1.3: records the size and location of every
// materialized dataset partition so that resource usage of a task is known
// exactly at the time the task becomes ready.
//
// Layout (DESIGN.md section 15). Each job owns one flat table with a slot per
// partition of every dataset its plan materializes, indexed by
// [DataId][partition] through per-dataset offsets; a slot is an entry once a
// Put fills it. DropJob frees one table; DropWorker, which runs only when a
// worker fails, walks the slots of the live tables.
//
// The store belongs to the Cluster, not to a job manager: partition data is
// worker-side state, so it survives a scheduler crash that discards the job
// managers, and only a worker failure or the end of the job removes it.
#ifndef SRC_EXEC_METADATA_STORE_H_
#define SRC_EXEC_METADATA_STORE_H_

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "src/dag/types.h"

namespace ursa {

struct PartitionInfo {
  double bytes = 0.0;
  WorkerId worker = kInvalidId;
  // Whether a Put recorded this partition and no DropWorker/DropJob has
  // removed it since.
  bool present = false;
};

class MetadataStore {
 public:
  // Creates the table of `job`, shaped by its plan's partition count per
  // DataId (ExecutionPlan::materialized_partitions). Idempotent while the
  // table exists (a job manager restored after a scheduler crash finds its
  // predecessor's entries); after DropJob it starts an empty table.
  void AddJob(JobId job, const std::vector<int>& dataset_partitions);

  // Records a partition. The job must have a table and the partition must
  // lie inside its dataset.
  void Put(JobId job, DataId data, int partition, double bytes, WorkerId worker);
  bool Has(JobId job, DataId data, int partition) const;
  // The entry of a present partition (CHECK-fails when it is missing).
  const PartitionInfo& Get(JobId job, DataId data, int partition) const;
  // Every slot of one dataset, indexed by partition; check `present` before
  // reading a slot. CHECK-fails when the job has no table.
  std::span<const PartitionInfo> Dataset(JobId job, DataId data) const;

  // Frees all metadata of a finished or aborted job.
  void DropJob(JobId job);

  // Drops every partition resident on `worker` (its data died with it).
  // Returns the number of partitions dropped.
  int DropWorker(WorkerId worker);

  // Present entries over all jobs.
  size_t size() const { return size_; }

 private:
  struct JobTable {
    // Slots of DataId d are [offsets[d], offsets[d + 1]).
    std::vector<size_t> offsets;
    std::vector<PartitionInfo> entries;
    size_t present = 0;
  };
  const JobTable* FindTable(JobId job) const;
  // Index of (data, partition) in the job's table; CHECK-fails outside its
  // layout.
  static size_t Slot(const JobTable& table, JobId job, DataId data, int partition);

  // Ordered by JobId; looked up by key only.
  std::map<JobId, JobTable> jobs_;
  size_t size_ = 0;
};

}  // namespace ursa

#endif  // SRC_EXEC_METADATA_STORE_H_
