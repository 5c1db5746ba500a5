#include "src/dag/plan.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace ursa {

namespace {

// Union-find over cop indices for stage grouping.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) { std::iota(parent_.begin(), parent_.end(), 0); }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

struct CopEdge {
  int from;
  int to;
  DepKind kind;
};

}  // namespace

ExecutionPlan ExecutionPlan::Build(const OpGraph& graph, uint64_t seed) {
  graph.Validate();
  ExecutionPlan plan;

  const auto& ops = graph.ops();
  const auto& deps = graph.deps();
  const size_t num_ops = ops.size();

  // Per-op parent/child edge lists for the collapse analysis.
  std::vector<std::vector<std::pair<OpId, DepKind>>> children(num_ops);
  std::vector<std::vector<std::pair<OpId, DepKind>>> parents(num_ops);
  for (const DepDef& dep : deps) {
    children[static_cast<size_t>(dep.from)].emplace_back(dep.to, dep.kind);
    parents[static_cast<size_t>(dep.to)].emplace_back(dep.from, dep.kind);
  }
  // Which ops read each dataset.
  std::vector<std::vector<OpId>> readers(graph.datasets().size());
  for (const OpDef& op : ops) {
    for (DataId d : op.reads) {
      readers[static_cast<size_t>(d)].push_back(op.id);
    }
  }

  // --- Step 1: collapse CPU chains connected by async deps. ---
  // `next[a] = b` when a and b can be fused (a feeds only b, b consumes only
  // a, both CPU, async edge, no Update side effects, equal parallelism).
  std::vector<OpId> next(num_ops, kInvalidId);
  std::vector<OpId> prev(num_ops, kInvalidId);
  for (size_t a = 0; a < num_ops; ++a) {
    const OpDef& op_a = ops[a];
    if (op_a.type != ResourceType::kCpu || !op_a.updates.empty()) {
      continue;
    }
    if (children[a].size() != 1 || children[a][0].second != DepKind::kAsync) {
      continue;
    }
    const OpId b = children[a][0].first;
    const OpDef& op_b = graph.op(b);
    if (op_b.type != ResourceType::kCpu || !op_b.updates.empty()) {
      continue;
    }
    if (parents[static_cast<size_t>(b)].size() != 1) {
      continue;
    }
    if (graph.OpParallelism(op_a.id) != graph.OpParallelism(b)) {
      continue;
    }
    // b must read exactly what a creates, and a's outputs must have no other
    // readers (so the intermediate datasets can disappear).
    bool fusable = !op_a.creates.empty();
    for (DataId d : op_b.reads) {
      if (graph.dataset(d).creator != op_a.id) {
        fusable = false;
      }
    }
    for (DataId d : op_a.creates) {
      const auto& r = readers[static_cast<size_t>(d)];
      if (r.size() != 1 || r[0] != b) {
        fusable = false;
      }
    }
    if (fusable) {
      next[a] = b;
      prev[static_cast<size_t>(b)] = op_a.id;
    }
  }

  // Walk maximal chains and build collapsed ops.
  std::vector<int> cop_of(num_ops, -1);
  for (size_t head = 0; head < num_ops; ++head) {
    if (prev[head] != kInvalidId) {
      continue;  // Not a chain head.
    }
    CollapsedOp cop;
    cop.index = static_cast<int>(plan.cops_.size());
    cop.type = ops[head].type;
    cop.parallelism = graph.OpParallelism(ops[head].id);
    cop.reads = ops[head].reads;
    cop.udf = ops[head].udf;
    double complexity = 0.0;
    double selectivity = 1.0;
    double fixed = 0.0;
    OpId cur = ops[head].id;
    while (cur != kInvalidId) {
      const OpDef& op = graph.op(cur);
      cop.members.push_back(cur);
      cop_of[static_cast<size_t>(cur)] = cop.index;
      complexity += selectivity * op.cost.cpu_complexity;
      fixed += op.cost.fixed_cpu_work;
      selectivity *= op.cost.output_selectivity;
      cop.cost.output_skew = std::max(cop.cost.output_skew, op.cost.output_skew);
      cop.m2i = std::max(cop.m2i, op.m2i);
      if (cop.name.empty()) {
        cop.name = op.name;
      } else {
        cop.name += "+" + op.name;
      }
      if (next[static_cast<size_t>(cur)] == kInvalidId) {
        cop.creates = op.creates;  // Outputs of the chain tail survive.
        // Keep any extra created datasets of intermediate members? The fuse
        // rule guarantees intermediates are read only by the next member, so
        // only the tail's outputs are externally visible.
      }
      cur = next[static_cast<size_t>(cur)];
    }
    cop.cost.cpu_complexity = complexity;
    cop.cost.output_selectivity = selectivity;
    cop.cost.fixed_cpu_work = fixed;
    // Every created dataset must have one partition per monotask.
    for (DataId d : cop.creates) {
      CHECK_EQ(graph.dataset(d).partitions, cop.parallelism)
          << "op " << cop.name << " creates dataset with mismatched partitioning";
    }
    plan.cops_.push_back(std::move(cop));
  }
  const size_t num_cops = plan.cops_.size();

  // --- Step 2: op-level edges between collapsed ops. ---
  std::vector<CopEdge> edges;
  {
    std::unordered_set<uint64_t> seen;
    for (const DepDef& dep : deps) {
      const int cf = cop_of[static_cast<size_t>(dep.from)];
      const int ct = cop_of[static_cast<size_t>(dep.to)];
      if (cf == ct) {
        continue;  // Fused away.
      }
      const uint64_t key = (static_cast<uint64_t>(cf) << 33) |
                           (static_cast<uint64_t>(ct) << 1) |
                           (dep.kind == DepKind::kSync ? 1u : 0u);
      if (seen.insert(key).second) {
        edges.push_back(CopEdge{cf, ct, dep.kind});
      }
    }
  }

  // --- Step 3: stage grouping. Async edges into non-network cops keep the
  // two cops in the same connected component (task/stage); everything else
  // (all edges into network cops) is a cross-stage edge. ---
  UnionFind uf(num_cops);
  for (const CopEdge& e : edges) {
    if (plan.cops_[static_cast<size_t>(e.to)].type != ResourceType::kNetwork) {
      CHECK(e.kind == DepKind::kAsync);  // Validate() guarantees this.
      uf.Union(static_cast<size_t>(e.from), static_cast<size_t>(e.to));
    }
  }

  // Global topological order of cops (edges respected), so stage-internal
  // monotask creation and in-task deps line up.
  std::vector<int> topo;
  {
    std::vector<int> indegree(num_cops, 0);
    std::vector<std::vector<int>> out(num_cops);
    for (const CopEdge& e : edges) {
      ++indegree[static_cast<size_t>(e.to)];
      out[static_cast<size_t>(e.from)].push_back(e.to);
    }
    std::vector<int> frontier;
    for (size_t i = 0; i < num_cops; ++i) {
      if (indegree[i] == 0) {
        frontier.push_back(static_cast<int>(i));
      }
    }
    // Stable order: process lowest index first for determinism.
    while (!frontier.empty()) {
      std::sort(frontier.begin(), frontier.end(), std::greater<int>());
      const int u = frontier.back();
      frontier.pop_back();
      topo.push_back(u);
      for (int v : out[static_cast<size_t>(u)]) {
        if (--indegree[static_cast<size_t>(v)] == 0) {
          frontier.push_back(v);
        }
      }
    }
    CHECK_EQ(topo.size(), num_cops);
  }

  // Assign stage ids in topo order of first appearance.
  std::unordered_map<size_t, StageId> root_to_stage;
  for (int ci : topo) {
    const size_t root = uf.Find(static_cast<size_t>(ci));
    auto [it, inserted] = root_to_stage.emplace(root, static_cast<StageId>(plan.stages_.size()));
    if (inserted) {
      StageSpec stage;
      stage.id = it->second;
      plan.stages_.push_back(std::move(stage));
    }
    CollapsedOp& cop = plan.cops_[static_cast<size_t>(ci)];
    cop.stage = it->second;
    StageSpec& stage = plan.stages_[static_cast<size_t>(it->second)];
    stage.cops.push_back(ci);
    if (stage.num_tasks == 0) {
      stage.num_tasks = cop.parallelism;
    } else {
      CHECK_EQ(stage.num_tasks, cop.parallelism)
          << "stage with mismatched parallelism at op " << cop.name;
    }
    stage.m2i = std::max(stage.m2i, cop.m2i);
    if (stage.name.empty()) {
      stage.name = cop.name;
    }
  }

  // Cross-stage dependencies at cop level.
  std::vector<std::vector<int>> intask_parent_cops(num_cops);
  for (const CopEdge& e : edges) {
    CollapsedOp& to = plan.cops_[static_cast<size_t>(e.to)];
    const CollapsedOp& from = plan.cops_[static_cast<size_t>(e.from)];
    if (to.stage == from.stage) {
      CHECK(e.kind == DepKind::kAsync)
          << "sync dependency " << from.name << " -> " << to.name
          << " collapsed into one stage: an async path short-circuits the "
             "barrier (route the data through the shuffle instead)";
      intask_parent_cops[static_cast<size_t>(e.to)].push_back(e.from);
    } else if (e.kind == DepKind::kSync) {
      to.sync_parents.push_back(e.from);
    } else {
      CHECK_EQ(to.parallelism, from.parallelism);
      to.async_parents.push_back(e.from);
    }
  }

  // --- Step 4: read modes. ---
  for (CollapsedOp& cop : plan.cops_) {
    cop.read_modes.resize(cop.reads.size());
    for (size_t r = 0; r < cop.reads.size(); ++r) {
      const DataId d = cop.reads[r];
      const DatasetDef& ds = graph.dataset(d);
      if (!ds.external_sizes.empty()) {
        cop.read_modes[r] = ReadMode::kExternal;
        CHECK_EQ(ds.partitions, cop.parallelism)
            << "op " << cop.name << " reads external data with mismatched partitioning";
        continue;
      }
      CHECK_NE(ds.creator, kInvalidId);
      const int creator_cop = cop_of[static_cast<size_t>(ds.creator)];
      CHECK_NE(creator_cop, cop.index) << "self-read after collapse in " << cop.name;
      // Find the edge kind between the creator cop and this cop.
      bool found = false;
      DepKind kind = DepKind::kAsync;
      for (const CopEdge& e : edges) {
        if (e.from == creator_cop && e.to == cop.index) {
          found = true;
          kind = e.kind;
          if (kind == DepKind::kSync) {
            break;  // Prefer the sync edge if both exist.
          }
        }
      }
      CHECK(found) << "op " << cop.name << " reads dataset " << ds.name
                   << " but has no dependency on its creator";
      if (kind == DepKind::kSync) {
        cop.read_modes[r] = ReadMode::kGatherSlices;
      } else {
        cop.read_modes[r] = ReadMode::kOnePartition;
        CHECK_EQ(ds.partitions, cop.parallelism);
      }
    }
  }

  // --- Step 5: skew weights (deterministic per seed and op). ---
  for (CollapsedOp& cop : plan.cops_) {
    cop.slice_weights.assign(static_cast<size_t>(cop.parallelism), 1.0);
    if (cop.cost.output_skew > 1.0 && cop.parallelism > 1) {
      Rng rng(seed ^ (0x517cc1b727220a95ULL * static_cast<uint64_t>(cop.index + 1)));
      double total = 0.0;
      for (double& w : cop.slice_weights) {
        w = rng.SkewFactor(cop.cost.output_skew);
        total += w;
      }
      const double norm = static_cast<double>(cop.parallelism) / total;
      for (double& w : cop.slice_weights) {
        w *= norm;
      }
    }
  }

  // --- Step 6: tasks and monotasks. ---
  for (StageSpec& stage : plan.stages_) {
    for (int i = 0; i < stage.num_tasks; ++i) {
      TaskSpec task;
      task.id = static_cast<TaskId>(plan.tasks_.size());
      task.stage = stage.id;
      task.index = i;
      // Monotasks, one per cop, in stage-internal topo order (stage.cops is
      // already globally topo-ordered).
      std::unordered_map<int, MonotaskId> cop_to_mt;
      for (int ci : stage.cops) {
        MonotaskSpec mt;
        mt.id = static_cast<MonotaskId>(plan.monotasks_.size());
        mt.cop = ci;
        mt.index = i;
        mt.type = plan.cops_[static_cast<size_t>(ci)].type;
        mt.task = task.id;
        for (int pc : intask_parent_cops[static_cast<size_t>(ci)]) {
          auto it = cop_to_mt.find(pc);
          CHECK(it != cop_to_mt.end()) << "in-task parent not yet materialized";
          mt.intask_deps.push_back(it->second);
        }
        cop_to_mt.emplace(ci, mt.id);
        task.monotasks.push_back(mt.id);
        plan.monotasks_.push_back(std::move(mt));
      }
      for (MonotaskId m : task.monotasks) {
        for (MonotaskId dep : plan.monotasks_[static_cast<size_t>(m)].intask_deps) {
          plan.monotasks_[static_cast<size_t>(dep)].intask_dependents.push_back(m);
        }
      }
      stage.tasks.push_back(task.id);
      plan.tasks_.push_back(std::move(task));
    }
  }

  // --- Step 7: task-level dependencies. ---
  for (StageSpec& stage : plan.stages_) {
    std::vector<StageId> sync_parent_stages;
    std::vector<StageId> async_parent_stages;
    for (int ci : stage.cops) {
      const CollapsedOp& cop = plan.cops_[static_cast<size_t>(ci)];
      for (int p : cop.sync_parents) {
        sync_parent_stages.push_back(plan.cops_[static_cast<size_t>(p)].stage);
      }
      for (int p : cop.async_parents) {
        async_parent_stages.push_back(plan.cops_[static_cast<size_t>(p)].stage);
      }
    }
    auto dedupe = [](std::vector<StageId>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedupe(sync_parent_stages);
    dedupe(async_parent_stages);
    for (TaskId t : stage.tasks) {
      TaskSpec& task = plan.tasks_[static_cast<size_t>(t)];
      task.sync_parent_stages = sync_parent_stages;
      for (StageId ps : async_parent_stages) {
        const StageSpec& parent_stage = plan.stages_[static_cast<size_t>(ps)];
        CHECK_EQ(parent_stage.num_tasks, stage.num_tasks);
        const TaskId parent_task = parent_stage.tasks[static_cast<size_t>(task.index)];
        task.async_parents.push_back(parent_task);
        plan.tasks_[static_cast<size_t>(parent_task)].async_children.push_back(t);
      }
    }
    for (StageId ps : sync_parent_stages) {
      plan.stages_[static_cast<size_t>(ps)].sync_child_stages.push_back(stage.id);
    }
  }

  // --- Dataset bookkeeping. ---
  plan.dataset_partitions_.reserve(graph.datasets().size());
  plan.external_sizes_.reserve(graph.datasets().size());
  for (const DatasetDef& ds : graph.datasets()) {
    plan.dataset_partitions_.push_back(ds.partitions);
    plan.external_sizes_.push_back(ds.external_sizes);
  }
  plan.total_input_bytes_ = graph.TotalExternalInputBytes();
  plan.cop_topo_order_ = std::move(topo);
  return plan;
}

std::vector<int> ExecutionPlan::materialized_partitions() const {
  std::vector<int> partitions = dataset_partitions_;
  for (size_t d = 0; d < partitions.size(); ++d) {
    if (!external_sizes_[d].empty()) {
      partitions[d] = 0;
    }
  }
  return partitions;
}

std::array<double, kNumMonotaskResources> ExecutionPlan::ExpectedWorkByResource() const {
  std::array<double, kNumMonotaskResources> work = {0.0, 0.0, 0.0};
  // Dataset totals propagate through cops in topological order; skew
  // preserves totals, so the expected sizes are exact at this granularity.
  std::vector<double> dataset_bytes(dataset_partitions_.size(), 0.0);
  for (size_t d = 0; d < external_sizes_.size(); ++d) {
    for (double b : external_sizes_[d]) {
      dataset_bytes[d] += b;
    }
  }
  for (int ci : cop_topo_order_) {
    const CollapsedOp& cop = cops_[static_cast<size_t>(ci)];
    double input = 0.0;
    for (DataId d : cop.reads) {
      input += dataset_bytes[static_cast<size_t>(d)];
    }
    work[static_cast<size_t>(cop.type)] += input;
    for (DataId d : cop.creates) {
      dataset_bytes[static_cast<size_t>(d)] = input * cop.cost.output_selectivity;
    }
  }
  return work;
}

}  // namespace ursa
