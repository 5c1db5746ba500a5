#include "src/exec/metadata_store.h"

#include "src/common/logging.h"

namespace ursa {

void MetadataStore::AddJob(JobId job, const std::vector<int>& dataset_partitions) {
  auto [it, inserted] = jobs_.try_emplace(job);
  JobTable& table = it->second;
  if (!inserted) {
    CHECK_EQ(table.offsets.size(), dataset_partitions.size() + 1)
        << "job " << job << " re-added with a different plan";
    return;
  }
  table.offsets.reserve(dataset_partitions.size() + 1);
  table.offsets.push_back(0);
  for (int partitions : dataset_partitions) {
    CHECK_GE(partitions, 0);
    table.offsets.push_back(table.offsets.back() + static_cast<size_t>(partitions));
  }
  table.entries.resize(table.offsets.back());
}

const MetadataStore::JobTable* MetadataStore::FindTable(JobId job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second;
}

size_t MetadataStore::Slot(const JobTable& table, JobId job, DataId data, int partition) {
  CHECK(data >= 0 && static_cast<size_t>(data) + 1 < table.offsets.size())
      << "job " << job << " has no dataset " << data;
  const size_t begin = table.offsets[static_cast<size_t>(data)];
  const size_t end = table.offsets[static_cast<size_t>(data) + 1];
  CHECK(partition >= 0 && static_cast<size_t>(partition) < end - begin)
      << "job " << job << " data " << data << " has no partition " << partition;
  return begin + static_cast<size_t>(partition);
}

void MetadataStore::Put(JobId job, DataId data, int partition, double bytes, WorkerId worker) {
  CHECK_GE(worker, 0);
  const auto it = jobs_.find(job);
  CHECK(it != jobs_.end()) << "metadata Put for job " << job << " without a table";
  JobTable& table = it->second;
  PartitionInfo& info = table.entries[Slot(table, job, data, partition)];
  if (!info.present) {
    ++table.present;
    ++size_;
  }
  info.bytes = bytes;
  info.worker = worker;
  info.present = true;
}

bool MetadataStore::Has(JobId job, DataId data, int partition) const {
  const JobTable* table = FindTable(job);
  return table != nullptr && table->entries[Slot(*table, job, data, partition)].present;
}

const PartitionInfo& MetadataStore::Get(JobId job, DataId data, int partition) const {
  const JobTable* table = FindTable(job);
  const PartitionInfo* info =
      table != nullptr ? &table->entries[Slot(*table, job, data, partition)] : nullptr;
  CHECK(info != nullptr && info->present) << "missing partition metadata: job " << job
                                          << " data " << data << " partition " << partition;
  return *info;
}

std::span<const PartitionInfo> MetadataStore::Dataset(JobId job, DataId data) const {
  const JobTable* table = FindTable(job);
  CHECK(table != nullptr) << "missing partition metadata: job " << job << " data " << data;
  CHECK(data >= 0 && static_cast<size_t>(data) + 1 < table->offsets.size())
      << "job " << job << " has no dataset " << data;
  const size_t begin = table->offsets[static_cast<size_t>(data)];
  const size_t end = table->offsets[static_cast<size_t>(data) + 1];
  return std::span<const PartitionInfo>(table->entries.data() + begin, end - begin);
}

int MetadataStore::DropWorker(WorkerId worker) {
  int dropped = 0;
  for (auto& [job, table] : jobs_) {
    for (PartitionInfo& info : table.entries) {
      if (info.present && info.worker == worker) {
        info.present = false;
        --table.present;
        ++dropped;
      }
    }
  }
  size_ -= static_cast<size_t>(dropped);
  return dropped;
}

void MetadataStore::DropJob(JobId job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  size_ -= it->second.present;
  jobs_.erase(it);
}

}  // namespace ursa
