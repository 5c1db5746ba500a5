#include "src/exec/estimator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

namespace {

double LookupLocal(const std::vector<OutputRecord>* local, DataId data, int partition) {
  if (local == nullptr) {
    return -1.0;
  }
  for (const OutputRecord& rec : *local) {
    if (rec.data == data && rec.partition == partition) {
      return rec.bytes;
    }
  }
  return -1.0;
}

const PartitionInfo& Present(const PartitionInfo& info, const Job& job, DataId data,
                             int partition) {
  CHECK(info.present) << "missing partition metadata: job " << job.id << " data " << data
                      << " partition " << partition;
  return info;
}

}  // namespace

double UsageEstimator::MonotaskInputBytes(const Job& job, MonotaskId mt_id,
                                          const MetadataStore& meta,
                                          const std::vector<OutputRecord>* local) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  double total = 0.0;
  for (size_t r = 0; r < cop.reads.size(); ++r) {
    const DataId d = cop.reads[r];
    switch (cop.read_modes[r]) {
      case ReadMode::kExternal:
        total += plan.external_sizes(d)[static_cast<size_t>(mt.index)];
        break;
      case ReadMode::kOnePartition: {
        const double local_bytes = LookupLocal(local, d, mt.index);
        if (local_bytes >= 0.0) {
          total += local_bytes;
        } else {
          total += meta.Get(job.id, d, mt.index).bytes;
        }
        break;
      }
      case ReadMode::kGatherSlices: {
        const std::span<const PartitionInfo> row = meta.Dataset(job.id, d);
        const double weight =
            cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
        for (size_t p = 0; p < row.size(); ++p) {
          total += Present(row[p], job, d, static_cast<int>(p)).bytes * weight;
        }
        break;
      }
    }
  }
  return total;
}

std::vector<OutputRecord> UsageEstimator::ComputeOutputs(const Job& job, MonotaskId mt_id,
                                                         double input_bytes) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  std::vector<OutputRecord> out;
  out.reserve(cop.creates.size());
  // Skew weights are applied where the skew physically materializes: at
  // gather time for shuffles (already folded into input_bytes), at output
  // time for CPU/disk producers.
  double weight = 1.0;
  if (cop.type != ResourceType::kNetwork) {
    weight = cop.slice_weights[static_cast<size_t>(mt.index)];
  }
  for (DataId d : cop.creates) {
    OutputRecord rec;
    rec.data = d;
    rec.partition = mt.index;
    rec.bytes = input_bytes * cop.cost.output_selectivity * weight;
    out.push_back(rec);
  }
  return out;
}

std::vector<RunnableMonotask::Pull> UsageEstimator::ResolvePulls(const Job& job,
                                                                 MonotaskId mt_id,
                                                                 const MetadataStore& meta) {
  return ResolvePulls(job, mt_id, meta, nullptr, kInvalidId, nullptr);
}

std::vector<RunnableMonotask::Pull> UsageEstimator::ResolvePulls(
    const Job& job, MonotaskId mt_id, const MetadataStore& meta,
    const std::vector<OutputRecord>* local, WorkerId local_worker, double* input_bytes) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  CHECK(cop.type == ResourceType::kNetwork);
  CHECK(local == nullptr || local_worker >= 0);
  // One pull per source, accumulated in partition order and emitted sorted
  // by WorkerId. `slot_of[w]` is w's index in `pulls` while w has one, -1
  // otherwise; it grows to the largest source seen and is reset before
  // returning, so it is all -1 between calls. Both buffers are reused across
  // calls; the result is an exact-size copy, as queued monotasks hold it
  // until they run.
  thread_local std::vector<int> slot_of;
  thread_local std::vector<RunnableMonotask::Pull> pulls;
  pulls.clear();
  auto add = [&](WorkerId source, double bytes) {
    if (slot_of.size() <= static_cast<size_t>(source)) {
      slot_of.resize(static_cast<size_t>(source) + 1, -1);
    }
    int& slot = slot_of[static_cast<size_t>(source)];
    if (slot < 0) {
      slot = static_cast<int>(pulls.size());
      pulls.push_back(RunnableMonotask::Pull{source, 0.0});
    }
    pulls[static_cast<size_t>(slot)].bytes += bytes;
  };
  // The input total takes the same terms in the same order as
  // MonotaskInputBytes, so the two agree bit for bit.
  double total = 0.0;
  for (size_t r = 0; r < cop.reads.size(); ++r) {
    const DataId d = cop.reads[r];
    switch (cop.read_modes[r]) {
      case ReadMode::kExternal:
        LOG(Fatal) << "network op " << cop.name << " reads external data";
        break;
      case ReadMode::kOnePartition: {
        const double local_bytes = LookupLocal(local, d, mt.index);
        if (local_bytes >= 0.0) {
          add(local_worker, local_bytes * 1.0);
          total += local_bytes;
        } else {
          const PartitionInfo& info = meta.Get(job.id, d, mt.index);
          add(info.worker, info.bytes * 1.0);
          total += info.bytes;
        }
        break;
      }
      case ReadMode::kGatherSlices: {
        const std::span<const PartitionInfo> row = meta.Dataset(job.id, d);
        const double weight =
            cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
        for (size_t p = 0; p < row.size(); ++p) {
          // The input total reads the store even where the copy's buffer
          // supplies the pull, as MonotaskInputBytes does.
          const PartitionInfo& info = Present(row[p], job, d, static_cast<int>(p));
          const double slice = info.bytes * weight;
          total += slice;
          const double local_bytes = LookupLocal(local, d, static_cast<int>(p));
          if (local_bytes >= 0.0) {
            add(local_worker, local_bytes * weight);
          } else {
            add(info.worker, slice);
          }
        }
        break;
      }
    }
  }
  if (input_bytes != nullptr) {
    *input_bytes = total;
  }
  for (const RunnableMonotask::Pull& pull : pulls) {
    slot_of[static_cast<size_t>(pull.src)] = -1;
  }
  std::sort(pulls.begin(), pulls.end(),
            [](const RunnableMonotask::Pull& a, const RunnableMonotask::Pull& b) {
              return a.src < b.src;
            });
  return std::vector<RunnableMonotask::Pull>(pulls.begin(), pulls.end());
}

TaskUsage UsageEstimator::EstimateTask(const Job& job, TaskId task_id,
                                       const MetadataStore& meta, double ready_input_total) {
  const ExecutionPlan& plan = job.plan;
  const TaskSpec& task = plan.task(task_id);
  TaskUsage usage;
  std::vector<OutputRecord> local;
  for (MonotaskId m : task.monotasks) {
    const MonotaskSpec& mt = plan.monotask(m);
    const double in = MonotaskInputBytes(job, m, meta, &local);
    usage.bytes[static_cast<size_t>(mt.type)] += in;
    if (mt.intask_deps.empty()) {
      usage.input_bytes += in;  // Root monotasks bring data into the task.
    }
    for (OutputRecord& rec : ComputeOutputs(job, m, in)) {
      local.push_back(rec);
    }
  }
  // Memory: min(r * M(j), m2i * I(t)), with r the task's share of the ready
  // input (section 4.2.1).
  const StageSpec& stage = plan.stage(task.stage);
  const double m2i = stage.m2i > 0.0 ? stage.m2i : job.spec.default_m2i;
  double r = 1.0;
  if (ready_input_total > 0.0) {
    r = std::min(1.0, usage.input_bytes / ready_input_total);
  }
  usage.memory = std::min(r * job.spec.declared_memory_bytes, m2i * usage.input_bytes);
  // Every task needs some memory to run at all.
  usage.memory = std::max(usage.memory, 16.0 * 1024 * 1024);
  return usage;
}

}  // namespace ursa
