// Tests for the JM-side resource usage estimation (section 4.2.1): per-read
// input resolution, network pull aggregation per source worker, and the
// min(r * M(j), m2i * I(t)) memory formula.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "src/common/rng.h"
#include "src/exec/estimator.h"

namespace ursa {
namespace {

std::unique_ptr<Job> ReduceByKeyJob(int in_parts, int out_parts, double part_bytes,
                                    double m2i = 0.0, double declared = 1e9) {
  JobSpec spec;
  spec.name = "job";
  spec.declared_memory_bytes = declared;
  spec.default_m2i = 2.0;
  OpGraph& graph = spec.graph;
  const DataId input = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(in_parts), part_bytes), "in");
  const DataId msg = graph.CreateData(in_parts, "msg");
  const DataId shuffled = graph.CreateData(out_parts, "shuffled");
  const DataId result = graph.CreateData(out_parts, "result");
  OpHandle ser = graph.CreateOp(ResourceType::kCpu, "ser").Read(input).Create(msg);
  if (m2i > 0.0) {
    ser.SetM2i(m2i);
  }
  OpHandle shuffle =
      graph.CreateOp(ResourceType::kNetwork, "shuffle").Read(msg).Create(shuffled);
  OpHandle deser = graph.CreateOp(ResourceType::kCpu, "deser").Read(shuffled).Create(result);
  ser.To(shuffle, DepKind::kSync);
  shuffle.To(deser, DepKind::kAsync);
  return Job::Create(0, std::move(spec));
}

TEST(Estimator, ExternalReadUsesDeclaredSizes) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  // Stage 0 task 0 = ser monotask on partition 0.
  const TaskId t = job->plan.stage(0).tasks[0];
  const MonotaskId m = job->plan.task(t).monotasks[0];
  EXPECT_DOUBLE_EQ(UsageEstimator::MonotaskInputBytes(*job, m, meta, nullptr), 100.0);
}

TEST(Estimator, GatherSumsSlicesAcrossPartitions) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  meta.AddJob(job->id, job->plan.materialized_partitions());
  // The ser outputs are materialized: partitions of `msg` (DataId 1).
  for (int p = 0; p < 4; ++p) {
    meta.Put(job->id, 1, p, 50.0, /*worker=*/p % 2);
  }
  const TaskId t = job->plan.stage(1).tasks[0];
  const MonotaskId net = job->plan.task(t).monotasks[0];
  // Uniform weights: slice 0 of each of 4 partitions = 50 / 2 each = 100.
  EXPECT_NEAR(UsageEstimator::MonotaskInputBytes(*job, net, meta, nullptr), 100.0, 1e-9);
  // Pulls aggregate per source worker: two workers x 50 bytes.
  const auto pulls = UsageEstimator::ResolvePulls(*job, net, meta);
  ASSERT_EQ(pulls.size(), 2u);
  EXPECT_NEAR(pulls[0].bytes, 50.0, 1e-9);
  EXPECT_NEAR(pulls[1].bytes, 50.0, 1e-9);
}

TEST(Estimator, TaskUsagePropagatesThroughInTaskChain) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  meta.AddJob(job->id, job->plan.materialized_partitions());
  for (int p = 0; p < 4; ++p) {
    meta.Put(job->id, 1, p, 60.0, 0);
  }
  const TaskId t = job->plan.stage(1).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, 0.0);
  // Network monotask input: 240 / 2 = 120. The CPU monotask consumes the
  // projected shuffle output (selectivity 1) = 120.
  EXPECT_NEAR(usage.bytes[static_cast<size_t>(ResourceType::kNetwork)], 120.0, 1e-9);
  EXPECT_NEAR(usage.bytes[static_cast<size_t>(ResourceType::kCpu)], 120.0, 1e-9);
  // Task input = root monotask (network) bytes only.
  EXPECT_NEAR(usage.input_bytes, 120.0, 1e-9);
}

TEST(Estimator, MemoryUsesM2iCap) {
  // Big declared memory: the m2i * I(t) term must win.
  const auto job = ReduceByKeyJob(2, 2, 1e9, /*m2i=*/1.5, /*declared=*/1e10);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, /*ready_total=*/2e9);
  EXPECT_NEAR(usage.memory, 1.5 * 1e9, 1.0);
}

TEST(Estimator, MemoryUsesShareOfDeclaredCap) {
  // Small declared memory: r * M(j) must win. r = 0.5 (this task is half
  // the ready input).
  const auto job = ReduceByKeyJob(2, 2, 1e9, /*m2i=*/3.0);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, /*ready_total=*/2e9);
  EXPECT_NEAR(usage.memory, 0.5 * 1e9, 1.0);
}

TEST(Estimator, MemoryHasFloor) {
  const auto job = ReduceByKeyJob(2, 2, 8.0);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, 16.0);
  EXPECT_GE(usage.memory, 16.0 * 1024 * 1024);
}

// A shuffle with skewed slice weights that also reads one partition of a
// second dataset: ser(4) --sync--> shuffle(3) <--async-- side(3); each
// shuffle monotask gathers every `msg` partition and reads its own `side`
// partition.
std::unique_ptr<Job> SkewedGatherJob() {
  JobSpec spec;
  spec.name = "skewed";
  spec.declared_memory_bytes = 1e9;
  OpGraph& graph = spec.graph;
  const DataId input = graph.CreateExternalData(std::vector<double>(4, 100.0), "in");
  const DataId side_in = graph.CreateExternalData(std::vector<double>(3, 10.0), "side_in");
  const DataId msg = graph.CreateData(4, "msg");
  const DataId side = graph.CreateData(3, "side");
  const DataId shuffled = graph.CreateData(3, "shuffled");
  OpHandle ser = graph.CreateOp(ResourceType::kCpu, "ser").Read(input).Create(msg);
  OpHandle side_op = graph.CreateOp(ResourceType::kCpu, "side").Read(side_in).Create(side);
  OpCostModel skewed;
  skewed.output_skew = 3.0;
  OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "shuffle")
                         .Read(msg)
                         .Read(side)
                         .Create(shuffled)
                         .SetCost(skewed);
  ser.To(shuffle, DepKind::kSync);
  side_op.To(shuffle, DepKind::kAsync);
  return Job::Create(0, std::move(spec));
}

TEST(Estimator, PullInputTotalEqualsMonotaskInputBytesExactly) {
  // Dispatch takes a network monotask's input size from ResolvePulls'
  // `input_bytes`, so it must equal MonotaskInputBytes bit for bit, with and
  // without a speculative copy's buffer supplying some partitions.
  const auto job = SkewedGatherJob();
  const ExecutionPlan& plan = job->plan;
  MetadataStore meta;
  meta.AddJob(job->id, plan.materialized_partitions());
  const DataId msg = 2;
  const DataId side = 3;
  // Sizes with long mantissas, so a regrouped or reordered sum would differ.
  for (int p = 0; p < 4; ++p) {
    meta.Put(job->id, msg, p, 1e9 / (3.0 + p) + 0.1 * p, /*worker=*/(p * 7) % 5);
  }
  for (int p = 0; p < 3; ++p) {
    meta.Put(job->id, side, p, 1e6 / 7.0 * (p + 1), /*worker=*/p);
  }
  int checked = 0;
  bool skewed = false;
  for (MonotaskId m = 0; m < static_cast<MonotaskId>(plan.monotasks().size()); ++m) {
    const MonotaskSpec& mt = plan.monotask(m);
    const CollapsedOp& cop = plan.cop(mt.cop);
    if (cop.type != ResourceType::kNetwork) {
      continue;
    }
    ASSERT_EQ(cop.read_modes.size(), 2u);
    skewed = skewed || cop.slice_weights[static_cast<size_t>(mt.index)] != 1.0;
    // The copy on worker 9 buffered msg partitions 1 and 3 (at sizes unlike
    // the store's) and this monotask's side partition.
    const std::vector<OutputRecord> local = {
        {msg, 1, 3.3e8 / 7.0}, {msg, 3, 1.1e8 / 3.0}, {side, mt.index, 5e5 / 3.0}};
    const std::vector<OutputRecord>* buffers[] = {nullptr, &local};
    for (const std::vector<OutputRecord>* buffer : buffers) {
      double input = -1.0;
      const auto pulls = UsageEstimator::ResolvePulls(*job, m, meta, buffer,
                                                      buffer != nullptr ? 9 : kInvalidId,
                                                      &input);
      EXPECT_EQ(input, UsageEstimator::MonotaskInputBytes(*job, m, meta, buffer))
          << "monotask " << m << (buffer != nullptr ? " with" : " without") << " buffer";
      const bool from_copy = !pulls.empty() && pulls.back().src == 9;
      EXPECT_EQ(from_copy, buffer != nullptr);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 6);
  EXPECT_TRUE(skewed);
}

TEST(MetadataStore, PutGetDrop) {
  MetadataStore meta;
  meta.AddJob(1, {1, 1, 8});
  meta.Put(1, 2, 3, 42.0, 4);
  EXPECT_TRUE(meta.Has(1, 2, 3));
  EXPECT_DOUBLE_EQ(meta.Get(1, 2, 3).bytes, 42.0);
  EXPECT_EQ(meta.Get(1, 2, 3).worker, 4);
  meta.Put(1, 2, 4, 8.0, 0);
  const std::span<const PartitionInfo> row = meta.Dataset(1, 2);
  ASSERT_EQ(row.size(), 8u);
  double total = 0.0;
  for (const PartitionInfo& info : row) {
    total += info.present ? info.bytes : 0.0;
  }
  EXPECT_DOUBLE_EQ(total, 50.0);
  meta.DropJob(1);
  EXPECT_FALSE(meta.Has(1, 2, 3));
  EXPECT_EQ(meta.size(), 0u);
}

// --- Differential check of the store against a plain ordered map. ---

using MetaKey = std::tuple<JobId, DataId, int>;

// What the store must answer, kept the obvious way: one map entry per
// present partition, plus the set of jobs that have a table.
struct ReferenceStore {
  std::map<JobId, std::vector<int>> layouts;  // Jobs with a table.
  std::map<MetaKey, PartitionInfo> entries;

  int DropWorker(WorkerId worker) {
    int dropped = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.worker == worker) {
        it = entries.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }
  void DropJob(JobId job) {
    layouts.erase(job);
    entries.erase(entries.lower_bound({job, 0, 0}), entries.lower_bound({job + 1, 0, 0}));
  }
};

// Every slot of every job with a table answers Has/Get/Dataset as the
// reference does.
void ExpectSameAnswers(const MetadataStore& store, const ReferenceStore& ref) {
  ASSERT_EQ(store.size(), ref.entries.size());
  for (const auto& [job, layout] : ref.layouts) {
    for (DataId d = 0; d < static_cast<DataId>(layout.size()); ++d) {
      const std::span<const PartitionInfo> row = store.Dataset(job, d);
      ASSERT_EQ(row.size(), static_cast<size_t>(layout[static_cast<size_t>(d)]));
      for (int p = 0; p < layout[static_cast<size_t>(d)]; ++p) {
        const auto it = ref.entries.find({job, d, p});
        const bool present = it != ref.entries.end();
        ASSERT_EQ(store.Has(job, d, p), present) << job << "/" << d << "/" << p;
        ASSERT_EQ(row[static_cast<size_t>(p)].present, present);
        if (present) {
          EXPECT_EQ(store.Get(job, d, p).bytes, it->second.bytes);
          EXPECT_EQ(store.Get(job, d, p).worker, it->second.worker);
        }
      }
    }
  }
}

TEST(MetadataStoreDifferential, RandomOperationsMatchAnOrderedMap) {
  // Job ids that a key packing 24 bits of job would alias (0 and 1 << 24,
  // 5 and 5 + (1 << 24)), and small datasets so that Puts overwrite, move
  // partitions between workers and refill dropped slots often.
  const std::vector<JobId> jobs = {0, 5, 1 << 24, 5 + (1 << 24)};
  const std::vector<int> layout = {0, 3, 5, 2};  // DataId 0 is an external input.
  constexpr int kWorkers = 5;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    MetadataStore store;
    ReferenceStore ref;
    int dropped_total = 0;
    for (int step = 0; step < 4000; ++step) {
      const JobId job = jobs[rng.UniformInt(jobs.size())];
      const bool has_table = ref.layouts.count(job) > 0;
      const uint64_t op = rng.UniformInt(uint64_t{100});
      if (!has_table || op < 3) {
        store.AddJob(job, layout);
        ref.layouts.emplace(job, layout);  // A no-op on an existing table.
      } else if (op < 80) {
        const DataId d = static_cast<DataId>(rng.UniformInt(int64_t{1}, int64_t{3}));
        const int p = static_cast<int>(rng.UniformInt(uint64_t(layout[static_cast<size_t>(d)])));
        const double bytes = static_cast<double>(rng.UniformInt(int64_t{1}, int64_t{1000}));
        const WorkerId worker = static_cast<WorkerId>(rng.UniformInt(uint64_t{kWorkers}));
        store.Put(job, d, p, bytes, worker);
        ref.entries[{job, d, p}] = PartitionInfo{bytes, worker, true};
      } else if (op < 85) {
        const WorkerId worker = static_cast<WorkerId>(rng.UniformInt(uint64_t{kWorkers}));
        const int dropped = store.DropWorker(worker);
        ASSERT_EQ(dropped, ref.DropWorker(worker)) << "seed " << seed << " step " << step;
        dropped_total += dropped;
      } else if (op < 88) {
        store.DropJob(job);
        ref.DropJob(job);
      }
      // The remaining operations only query.
      ExpectSameAnswers(store, ref);
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(dropped_total, 0) << "seed " << seed;
  }
}

TEST(MetadataStoreDifferential, KeysPastTheOldBitFieldsDoNotAlias) {
  // A key packing 24 bits of job and 20 of partition makes job 1 << 24
  // collide with job 0, and partition 1 << 20 with partition 0.
  MetadataStore store;
  constexpr int kWide = (1 << 20) + 1;
  store.AddJob(0, {0, kWide});
  store.AddJob(1 << 24, {0, 4});
  store.Put(0, 1, 0, 10.0, 1);
  store.Put(1 << 24, 1, 0, 20.0, 2);
  store.Put(0, 1, 1 << 20, 30.0, 3);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_DOUBLE_EQ(store.Get(0, 1, 0).bytes, 10.0);
  EXPECT_DOUBLE_EQ(store.Get(1 << 24, 1, 0).bytes, 20.0);
  EXPECT_DOUBLE_EQ(store.Get(0, 1, 1 << 20).bytes, 30.0);
  EXPECT_EQ(store.Get(0, 1, 1 << 20).worker, 3);
  store.DropJob(1 << 24);
  EXPECT_TRUE(store.Has(0, 1, 0));
  EXPECT_FALSE(store.Has(1 << 24, 1, 0));
  EXPECT_EQ(store.DropWorker(3), 1);
  EXPECT_TRUE(store.Has(0, 1, 0));
  EXPECT_FALSE(store.Has(0, 1, 1 << 20));
  EXPECT_EQ(store.size(), 1u);
}

TEST(MetadataStoreDifferential, TableSurvivesReAddAndRestartsAfterDrop) {
  // A restored job manager re-adds its job and must find its entries; a job
  // restarted after DropJob starts empty.
  MetadataStore store;
  store.AddJob(3, {0, 2});
  store.Put(3, 1, 0, 5.0, 0);
  store.AddJob(3, {0, 2});
  EXPECT_TRUE(store.Has(3, 1, 0));
  store.DropJob(3);
  store.AddJob(3, {0, 2});
  EXPECT_FALSE(store.Has(3, 1, 0));
  store.Put(3, 1, 1, 6.0, 1);
  EXPECT_EQ(store.DropWorker(0), 0);
  EXPECT_TRUE(store.Has(3, 1, 1));
  EXPECT_EQ(store.DropWorker(1), 1);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MetadataStoreDeathTest, PutOutsideTheLayoutIsRejected) {
  MetadataStore store;
  EXPECT_DEATH(store.Put(1, 1, 0, 1.0, 0), "without a table");
  store.AddJob(1, {0, 2});
  EXPECT_DEATH(store.Put(1, 1, 2, 1.0, 0), "no partition 2");
  EXPECT_DEATH(store.Put(1, 2, 0, 1.0, 0), "no dataset 2");
  EXPECT_DEATH(store.Get(1, 1, 0), "missing partition metadata");
}

}  // namespace
}  // namespace ursa
