#include "src/exec/job_manager.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/journal.h"
#include "src/obs/trace.h"

namespace ursa {

namespace {

// Position of monotask `m` within its task's monotask list (copy state is
// indexed positionally). Task DAGs are small, so a linear scan is fine.
int IndexInTask(const TaskSpec& task, MonotaskId m) {
  for (size_t i = 0; i < task.monotasks.size(); ++i) {
    if (task.monotasks[i] == m) {
      return static_cast<int>(i);
    }
  }
  LOG(Fatal) << "monotask " << m << " not in task " << task.id;
  return -1;
}

}  // namespace

JobManager::JobManager(Simulator* sim, Cluster* cluster, Job* job, JobManagerListener* listener)
    : sim_(sim), cluster_(cluster), job_(job), listener_(listener) {
  tasks_.resize(plan().tasks().size());
  monotasks_.resize(plan().monotasks().size());
  stages_.resize(plan().stages().size());
  remaining_work_ = plan().ExpectedWorkByResource();
}

void JobManager::Start() {
  cluster_->metadata().AddJob(job_->id, plan().materialized_partitions());
  for (const StageSpec& stage : plan().stages()) {
    stages_[static_cast<size_t>(stage.id)].remaining_tasks = stage.num_tasks;
  }
  for (const MonotaskSpec& mt : plan().monotasks()) {
    monotasks_[static_cast<size_t>(mt.id)].remaining_deps =
        static_cast<int>(mt.intask_deps.size());
  }
  for (const TaskSpec& task : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    rt.remaining_async_parents = static_cast<int>(task.async_parents.size());
    rt.remaining_sync_stages = static_cast<int>(task.sync_parent_stages.size());
    rt.remaining_monotasks = static_cast<int>(task.monotasks.size());
  }
  for (const TaskSpec& task : plan().tasks()) {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    if (rt.remaining_async_parents == 0 && rt.remaining_sync_stages == 0) {
      MarkReady(task.id);
    }
  }
}

void JobManager::MarkReady(TaskId t) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.state == TaskState::kBlocked);
  SetState(t, TaskState::kReady);
  rt.timing.ready_time = sim_->Now();
  // Per-resource bytes are exact now: all inputs from outside the task are
  // materialized (parents completed).
  rt.usage = UsageEstimator::EstimateTask(*job_, t, cluster_->metadata(), 0.0);
  ready_unplaced_.push_back(t);
  ready_input_total_ += rt.usage.input_bytes;
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(sim_->Now(), TraceEventKind::kTaskReady, job_->id, t,
                       plan().task(t).stage, kInvalidId);
  }
  listener_->OnTaskReady(job_->id, t);
}

TaskUsage JobManager::GetUsage(TaskId t) const {
  const TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  TaskUsage usage = rt.usage;
  // Refresh the memory estimate against the current ready set (the r * M(j)
  // cap of section 4.2.1).
  const StageSpec& stage = plan().stage(plan().task(t).stage);
  const double m2i = stage.m2i > 0.0 ? stage.m2i : job_->spec.default_m2i;
  double r = 1.0;
  if (ready_input_total_ > 0.0) {
    r = std::min(1.0, usage.input_bytes / ready_input_total_);
  }
  usage.memory =
      std::min(r * job_->spec.declared_memory_bytes, m2i * usage.input_bytes);
  usage.memory = std::max(usage.memory, 16.0 * 1024 * 1024);
  return usage;
}

void JobManager::RemoveFromReady(TaskId t) {
  auto it = std::find(ready_unplaced_.begin(), ready_unplaced_.end(), t);
  CHECK(it != ready_unplaced_.end());
  ready_unplaced_.erase(it);
  ready_input_total_ -= tasks_[static_cast<size_t>(t)].usage.input_bytes;
  ready_input_total_ = std::max(ready_input_total_, 0.0);
}

bool JobManager::PlaceTask(TaskId t, WorkerId worker_id) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.state == TaskState::kReady) << "placing task in state "
                                       << static_cast<int>(rt.state);
  const TaskUsage usage = GetUsage(t);
  Worker& worker = cluster_->worker(worker_id);
  if (!worker.TryAllocateMemory(usage.memory)) {
    return false;
  }
  SetState(t, TaskState::kPlaced);
  rt.worker = worker_id;
  rt.avoid_worker = kInvalidId;
  rt.allocated_memory = usage.memory;
  rt.actual_memory = std::min(job_->spec.true_m2i * usage.input_bytes, usage.memory);
  rt.timing.place_time = sim_->Now();
  // Fresh cancel token per placement: flipped if a speculative copy wins.
  rt.cancel = spec_manager_ != nullptr ? std::make_shared<CancelToken>() : nullptr;
  worker.AddActualMemoryUse(rt.actual_memory);
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kPlace, job_->id, t, worker_id, rt.generation,
                      rt.allocated_memory, rt.actual_memory, sim_->Now()});
  }
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(sim_->Now(), TraceEventKind::kTaskPlaced, job_->id, t,
                       plan().task(t).stage, worker_id);
  }
  RemoveFromReady(t);
  // Stream the task's root monotasks into the worker's queues.
  for (MonotaskId m : plan().task(t).monotasks) {
    if (monotasks_[static_cast<size_t>(m)].remaining_deps == 0) {
      SubmitMonotask(m);
    }
  }
  return true;
}

void JobManager::SubmitMonotask(MonotaskId m) {
  MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
  CHECK(!mrt.submitted);
  mrt.submitted = true;
  DispatchMonotask(m);
}

void JobManager::DispatchMonotask(MonotaskId m) {
  MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
  const MonotaskSpec& mt = plan().monotask(m);
  const CollapsedOp& cop = plan().cop(mt.cop);
  const TaskRuntime& trt = tasks_[static_cast<size_t>(mt.task)];
  CHECK_NE(trt.worker, kInvalidId);

  RunnableMonotask run;
  run.job = job_->id;
  run.id = m;
  run.type = mt.type;
  run.job_priority = priority_;
  run.cancel = trt.cancel;
  double input = 0.0;
  if (mt.type == ResourceType::kNetwork) {
    run.pulls = UsageEstimator::ResolvePulls(*job_, m, cluster_->metadata(), nullptr,
                                             kInvalidId, &input);
  } else {
    input = UsageEstimator::MonotaskInputBytes(*job_, m, cluster_->metadata(), nullptr);
    run.work = mt.type == ResourceType::kCpu
                   ? cop.cost.fixed_cpu_work + input * cop.cost.cpu_complexity
                   : input;
  }
  mrt.input_bytes = input;
  run.input_bytes = input;
  // Queue ordering within the job (section 4.2.3): stage-major; within a
  // stage CPU monotasks run largest-first, network/disk smallest-first.
  if (use_intra_ordering_) {
    const double stage_major = static_cast<double>(plan().task(mt.task).stage) * 1e15;
    run.intra_key = stage_major + (mt.type == ResourceType::kCpu ? -input : input);
  } else {
    run.intra_key = 0.0;
  }
  // Callbacks carry the task's generation so completions or failures of an
  // execution that has since been invalidated (lineage reset, re-placement)
  // are ignored.
  // The weak `alive` guard makes the callbacks safe even if this JM was
  // destroyed (aborted and reclaimed) before a deferred callback fires.
  const int gen = trt.generation;
  if (ctrl_ != nullptr) {
    // Identity-routed wire reports: the callbacks capture no JM pointer, so
    // an orphaned monotask survives a scheduler crash and its report is
    // routed to (or fenced against) whichever incarnation owns the job when
    // it finally lands.
    ControlPlane* ctrl = ctrl_;
    ControlPlane::CompletionMsg msg;
    msg.job = job_->id;
    msg.incarnation = incarnation_;
    msg.monotask = m;
    msg.generation = gen;
    msg.attempt = mrt.attempts;
    msg.worker = trt.worker;
    run.on_complete = [ctrl, msg] {
      ControlPlane::CompletionMsg report = msg;
      report.failed = false;
      ctrl->CompletionToScheduler(report);
    };
    run.on_failure = [ctrl, msg] {
      ControlPlane::CompletionMsg report = msg;
      report.failed = true;
      ctrl->CompletionToScheduler(report);
    };
    MsgKey key;
    key.job = job_->id;
    key.incarnation = incarnation_;
    key.monotask = m;
    key.generation = gen;
    key.attempt = mrt.attempts;
    key.channel = 0;
    ctrl->Dispatch(trt.worker, key, std::move(run));
    return;
  }
  run.on_complete = [this, m, gen, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    OnMonotaskComplete(m, gen);
  };
  run.on_failure = [this, m, gen, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    OnMonotaskFailed(m, gen);
  };
  cluster_->worker(trt.worker).Submit(std::move(run));
}

void JobManager::OnMonotaskCompleteWire(MonotaskId m, int generation, int attempt) {
  (void)attempt;  // Completion dedup is the done-flag; attempt is informational.
  OnMonotaskComplete(m, generation);
}

void JobManager::OnMonotaskFailedWire(MonotaskId m, int generation, int attempt) {
  if (aborted_) {
    return;
  }
  const MonotaskSpec& mt = plan().monotask(m);
  if (generation != tasks_[static_cast<size_t>(mt.task)].generation) {
    return;  // Failure of an invalidated execution.
  }
  const MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
  if (mrt.done || attempt != mrt.attempts) {
    // Duplicate of an already-handled failure (the handler bumped attempts),
    // or the completion raced ahead of a retransmitted failure report.
    return;
  }
  OnMonotaskFailed(m, generation);
}

void JobManager::Abort() {
  CHECK(!finished());
  aborted_ = true;
  for (const TaskSpec& task : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    if (rt.spec != nullptr) {
      CancelSpeculativeCopy(task.id, SpecEnd::kCancelled);
    }
    if (rt.state == TaskState::kPlaced) {
      Worker& worker = cluster_->worker(rt.worker);
      worker.ReleaseMemory(rt.allocated_memory);
      worker.AddActualMemoryUse(-rt.actual_memory);
    }
  }
  cluster_->metadata().DropJob(job_->id);
}

bool JobManager::DependsOnWorker(WorkerId worker) const {
  for (const TaskSpec& task : plan().tasks()) {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    if (rt.worker == worker &&
        (rt.state == TaskState::kPlaced || rt.state == TaskState::kCompleted)) {
      return true;
    }
  }
  return false;
}

void JobManager::OnMonotaskComplete(MonotaskId m, int generation) {
  if (aborted_) {
    return;  // A late completion from before the abort; the restart owns
             // the job now.
  }
  MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
  const MonotaskSpec& mt = plan().monotask(m);
  TaskRuntime& trt = tasks_[static_cast<size_t>(mt.task)];
  if (generation != trt.generation) {
    return;  // Stale completion of an invalidated execution.
  }
  if (mrt.done) {
    return;  // Duplicate delivery of this execution's completion report.
  }
  mrt.done = true;
  mrt.attempts = 0;
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kMonoDone, job_->id, m, trt.worker, trt.generation,
                      mrt.input_bytes, 0.0, sim_->Now()});
  }
  // Record outputs in the metadata store at this task's worker.
  for (const OutputRecord& rec :
       UsageEstimator::ComputeOutputs(*job_, m, mrt.input_bytes)) {
    cluster_->metadata().Put(job_->id, rec.data, rec.partition, rec.bytes, trt.worker);
  }
  remaining_work_[static_cast<size_t>(mt.type)] -= mrt.input_bytes;
  remaining_work_[static_cast<size_t>(mt.type)] =
      std::max(remaining_work_[static_cast<size_t>(mt.type)], 0.0);
  if (mt.type == ResourceType::kCpu) {
    const CollapsedOp& cop = plan().cop(mt.cop);
    cpu_seconds_used_ +=
        (cop.cost.fixed_cpu_work + mrt.input_bytes * cop.cost.cpu_complexity) /
        cluster_->config().worker.cpu_byte_rate;
  }
  listener_->OnMonotaskCompleted(job_->id, mt.type, mrt.input_bytes);
  // Release newly-runnable monotasks of the same task to the same worker.
  for (MonotaskId dep : mt.intask_dependents) {
    MonotaskRuntime& drt = monotasks_[static_cast<size_t>(dep)];
    CHECK_GT(drt.remaining_deps, 0);
    if (--drt.remaining_deps == 0) {
      SubmitMonotask(dep);
    }
  }
  if (--trt.remaining_monotasks == 0) {
    CompleteTask(mt.task);
  }
}

void JobManager::ConfigureFaultPolicy(int max_attempts, double backoff_base,
                                      double backoff_cap, FaultStats* stats) {
  CHECK_GE(max_attempts, 1);
  CHECK_GT(backoff_base, 0.0);
  CHECK_GE(backoff_cap, backoff_base);
  max_monotask_attempts_ = max_attempts;
  retry_backoff_base_ = backoff_base;
  retry_backoff_cap_ = backoff_cap;
  fault_stats_ = stats;
}

void JobManager::OnMonotaskFailed(MonotaskId m, int generation) {
  if (aborted_) {
    return;
  }
  const MonotaskSpec& mt = plan().monotask(m);
  TaskRuntime& trt = tasks_[static_cast<size_t>(mt.task)];
  if (generation != trt.generation) {
    return;  // Failure of an already-invalidated execution.
  }
  MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
  ++mrt.attempts;
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kMonoFailed, job_->id, m, trt.worker, trt.generation,
                      0.0, 0.0, sim_->Now()});
  }
  const Worker& worker = cluster_->worker(trt.worker);
  if (worker.failed()) {
    // The worker died under us (submission dropped or the scheduler has not
    // recovered yet): retrying there is pointless.
    if (fault_stats_ != nullptr) {
      fault_stats_->RecordWorkerLossFailure();
    }
    if (trt.spec != nullptr) {
      // A live speculative copy keeps the task going: hand it the race
      // instead of resetting. (HandleWorkerFailureForSpeculation usually
      // sets this first; a dropped submission's deferred failure can win.)
      // The dead worker's memory ledger was wiped at Fail(); drop the stale
      // claim so a later reset or abort cannot release it against the
      // worker after a rejoin.
      trt.primary_lost = true;
      trt.allocated_memory = 0.0;
      trt.actual_memory = 0.0;
      return;
    }
    if (fault_stats_ != nullptr) {
      fault_stats_->RecordEscalation();
    }
    ResetTaskForReplacement(mt.task);
    return;
  }
  if (fault_stats_ != nullptr) {
    fault_stats_->RecordTransientFailure();
  }
  if (mrt.attempts < max_monotask_attempts_) {
    // Capped exponential backoff on the same worker.
    const double delay = std::min(
        retry_backoff_cap_, retry_backoff_base_ * std::pow(2.0, mrt.attempts - 1));
    if (fault_stats_ != nullptr) {
      fault_stats_->RecordRetry(sim_->Now());
    }
    sim_->Schedule(delay, [this, m, generation, alive = std::weak_ptr<const bool>(alive_)] {
      if (alive.expired()) {
        return;
      }
      ResubmitMonotask(m, generation);
    });
  } else {
    if (fault_stats_ != nullptr) {
      fault_stats_->RecordEscalation();
    }
    ResetTaskForReplacement(mt.task);
  }
}

void JobManager::ResubmitMonotask(MonotaskId m, int generation) {
  if (aborted_) {
    return;
  }
  const MonotaskSpec& mt = plan().monotask(m);
  if (generation != tasks_[static_cast<size_t>(mt.task)].generation) {
    return;  // The task moved on (reset or re-placed) during the backoff.
  }
  monotasks_[static_cast<size_t>(m)].submitted = false;
  SubmitMonotask(m);
}

void JobManager::ResetTaskRuntime(TaskId t) {
  const TaskSpec& spec = plan().task(t);
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  if (rt.spec != nullptr) {
    // A reset invalidates the race along with the primary execution.
    CancelSpeculativeCopy(t, SpecEnd::kCancelled);
  }
  // The old primary's monotasks are invalidated by the generation bump (as
  // before speculation existed); the token is abandoned, not flipped, so
  // resets do not inflate the speculation waste counters.
  rt.cancel.reset();
  rt.primary_lost = false;
  rt.restored = false;
  ++rt.generation;
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kTaskReset, job_->id, t, kInvalidId, rt.generation,
                      0.0, 0.0, sim_->Now()});
  }
  rt.worker = kInvalidId;
  rt.allocated_memory = 0.0;
  rt.actual_memory = 0.0;
  rt.avoid_worker = kInvalidId;
  rt.timing.place_time = -1.0;
  rt.timing.finish_time = -1.0;
  rt.remaining_monotasks = static_cast<int>(spec.monotasks.size());
  for (MonotaskId m : spec.monotasks) {
    MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    if (mrt.done) {
      // The re-execution has to redo this work; put it back into R.
      const auto type = static_cast<size_t>(plan().monotask(m).type);
      remaining_work_[type] += mrt.input_bytes;
    }
    mrt.done = false;
    mrt.submitted = false;
    mrt.attempts = 0;
    mrt.remaining_deps = static_cast<int>(plan().monotask(m).intask_deps.size());
  }
}

bool JobManager::OutputsLost(TaskId t) const {
  for (MonotaskId m : plan().task(t).monotasks) {
    const MonotaskSpec& mt = plan().monotask(m);
    for (DataId d : plan().cop(mt.cop).creates) {
      if (!cluster_->metadata().Has(job_->id, d, mt.index)) {
        return true;
      }
    }
  }
  return false;
}

void JobManager::ResetTaskForReplacement(TaskId t) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.state == TaskState::kPlaced);
  const WorkerId old_worker = rt.worker;
  Worker& worker = cluster_->worker(old_worker);
  worker.ReleaseMemory(rt.allocated_memory);
  worker.AddActualMemoryUse(-rt.actual_memory);
  ResetTaskRuntime(t);
  rt.avoid_worker = old_worker;
  SetState(t, TaskState::kBlocked);
  MarkReady(t);
}

JobManager::RecoveryResult JobManager::RecoverFromWorkerFailure(WorkerId failed) {
  RecoveryResult result;
  if (aborted_ || finished()) {
    return result;
  }
  // Idempotent: the scheduler may already have done this (it must when
  // lineage recovery is disabled), but seeding below relies on it.
  HandleWorkerFailureForSpeculation(failed);
  const size_t n = tasks_.size();
  for (size_t i = 0; i < n; ++i) {
    if (tasks_[i].state == TaskState::kPlaced || tasks_[i].state == TaskState::kCompleted) {
      ++result.tasks_started_before;
    }
  }

  // Phase 1 - lineage analysis. Seed with in-flight placements on the dead
  // worker, then propagate to a fixpoint:
  //  * a completed task whose outputs are gone is lost iff some consumer
  //    still needs those outputs (it is not completed, or it is itself being
  //    reset). Outputs are gone when they lived on the dead worker, or on a
  //    worker lost in an earlier episode in which no consumer needed them;
  //    the metadata store is the record of the latter;
  //  * a ready/placed task is invalidated when any producer it reads from
  //    (async parent or any task of a sync parent stage) is being reset.
  // Blocked tasks need no flag: their counters are rebuilt in phase 2.
  std::vector<char> reset(n, 0);
  std::vector<char> outputs_gone(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const TaskRuntime& rt = tasks_[i];
    if (rt.state == TaskState::kCompleted) {
      outputs_gone[i] = rt.worker == failed || OutputsLost(static_cast<TaskId>(i));
    }
    // A placement on the dead worker with a live copy elsewhere is NOT lost:
    // HandleWorkerFailureForSpeculation marked it primary_lost and the copy
    // races on alone. Conversely a primary_lost task whose copy just died
    // (cancelled above by the same failure episode) has no runner left and
    // must be reset.
    if (rt.state == TaskState::kPlaced && rt.spec == nullptr &&
        (rt.worker == failed || rt.primary_lost)) {
      reset[i] = 1;
    }
  }
  auto any_dependent_needs = [&](const TaskSpec& spec) {
    for (TaskId child : spec.async_children) {
      const TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
      if (crt.state != TaskState::kCompleted || reset[static_cast<size_t>(child)]) {
        return true;
      }
    }
    for (StageId cs : plan().stage(spec.stage).sync_child_stages) {
      for (TaskId child : plan().stage(cs).tasks) {
        const TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
        if (crt.state != TaskState::kCompleted || reset[static_cast<size_t>(child)]) {
          return true;
        }
      }
    }
    return false;
  };
  auto any_producer_reset = [&](const TaskSpec& spec) {
    for (TaskId parent : spec.async_parents) {
      if (reset[static_cast<size_t>(parent)]) {
        return true;
      }
    }
    for (StageId ps : spec.sync_parent_stages) {
      for (TaskId parent : plan().stage(ps).tasks) {
        if (reset[static_cast<size_t>(parent)]) {
          return true;
        }
      }
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (reset[i]) {
        continue;
      }
      const TaskRuntime& rt = tasks_[i];
      const TaskSpec& spec = plan().task(static_cast<TaskId>(i));
      if (rt.state == TaskState::kCompleted) {
        if (outputs_gone[i] && any_dependent_needs(spec)) {
          reset[i] = 1;
          changed = true;
        }
      } else if (rt.state == TaskState::kReady || rt.state == TaskState::kPlaced) {
        if (any_producer_reset(spec)) {
          reset[i] = 1;
          changed = true;
        }
      }
    }
  }

  // Phase 2 - apply. Un-complete / de-schedule every reset task, then
  // rebuild stage barriers, dependency counters and the ready frontier.
  // Untouched completed tasks and untouched placements keep running.
  int num_reset = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!reset[i]) {
      continue;
    }
    ++num_reset;
    TaskRuntime& rt = tasks_[i];
    if (rt.state == TaskState::kPlaced) {
      // Placements on the failed worker itself release nothing: their charges
      // were wiped with the rest of the worker-side state when it failed.
      // This must not rely on the worker still being down — a worker that
      // failed AND rejoined while the scheduler was crashed is alive again
      // with a fresh ledger by the time recovery reconciles the episode, and
      // releasing against it would underflow. Placements reset on OTHER
      // (alive) workers by the lineage fixpoint release normally.
      if (rt.worker != failed) {
        Worker& worker = cluster_->worker(rt.worker);
        worker.ReleaseMemory(rt.allocated_memory);
        worker.AddActualMemoryUse(-rt.actual_memory);
      }
    } else if (rt.state == TaskState::kCompleted) {
      --completed_tasks_;
    }
    ResetTaskRuntime(static_cast<TaskId>(i));
    SetState(static_cast<TaskId>(i), TaskState::kBlocked);
    if (!rt.recovering) {
      rt.recovering = true;
      if (recovering_outstanding_ == 0) {
        recovery_start_ = sim_->Now();
      }
      ++recovering_outstanding_;
    }
  }
  result.tasks_reset = num_reset;
  if (num_reset == 0) {
    return result;  // Job untouched by this failure.
  }

  for (const StageSpec& stage : plan().stages()) {
    int remaining = 0;
    for (TaskId t : stage.tasks) {
      if (tasks_[static_cast<size_t>(t)].state != TaskState::kCompleted) {
        ++remaining;
      }
    }
    stages_[static_cast<size_t>(stage.id)].remaining_tasks = remaining;
  }
  // Rebuild dependency counters for every task that is not completed and not
  // an untouched in-flight placement, then recompute the ready frontier.
  ready_unplaced_.clear();
  ready_input_total_ = 0.0;
  for (const TaskSpec& spec : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(spec.id)];
    if (rt.state == TaskState::kCompleted || rt.state == TaskState::kPlaced) {
      continue;
    }
    SetState(spec.id, TaskState::kBlocked);
    int async_parents = 0;
    for (TaskId parent : spec.async_parents) {
      if (tasks_[static_cast<size_t>(parent)].state != TaskState::kCompleted) {
        ++async_parents;
      }
    }
    rt.remaining_async_parents = async_parents;
    int sync_stages = 0;
    for (StageId ps : spec.sync_parent_stages) {
      if (stages_[static_cast<size_t>(ps)].remaining_tasks > 0) {
        ++sync_stages;
      }
    }
    rt.remaining_sync_stages = sync_stages;
  }
  for (const TaskSpec& spec : plan().tasks()) {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(spec.id)];
    if (rt.state == TaskState::kBlocked && rt.remaining_async_parents == 0 &&
        rt.remaining_sync_stages == 0) {
      MarkReady(spec.id);
    }
  }
  return result;
}

void JobManager::RestoreFromImage(const JobImage& image) {
  CHECK(!aborted_);
  CHECK_EQ(image.tasks.size(), plan().tasks().size());
  CHECK_EQ(image.mono_done.size(), plan().monotasks().size());
  // The job's table outlived the crash along with its entries.
  cluster_->metadata().AddJob(job_->id, plan().materialized_partitions());
  // Base counters, exactly as Start() would set them.
  for (const StageSpec& stage : plan().stages()) {
    stages_[static_cast<size_t>(stage.id)].remaining_tasks = stage.num_tasks;
  }
  for (const MonotaskSpec& mt : plan().monotasks()) {
    monotasks_[static_cast<size_t>(mt.id)].remaining_deps =
        static_cast<int>(mt.intask_deps.size());
  }
  for (const TaskSpec& task : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    rt.remaining_async_parents = static_cast<int>(task.async_parents.size());
    rt.remaining_sync_stages = static_cast<int>(task.sync_parent_stages.size());
    rt.remaining_monotasks = static_cast<int>(task.monotasks.size());
  }
  // Fold journaled monotask completions back in without re-running their
  // side effects: outputs already live in the metadata store (worker-side
  // state that survived the crash), the listener was already told, and the
  // arrival-rate estimators already counted them. Only the counters replay.
  for (const MonotaskSpec& mt : plan().monotasks()) {
    const size_t i = static_cast<size_t>(mt.id);
    MonotaskRuntime& mrt = monotasks_[i];
    mrt.attempts = image.mono_attempts[i];
    if (image.mono_done[i] == 0) {
      continue;
    }
    mrt.done = true;
    mrt.submitted = true;
    mrt.attempts = 0;
    mrt.input_bytes = image.mono_bytes[i];
    auto& remaining = remaining_work_[static_cast<size_t>(mt.type)];
    remaining = std::max(remaining - mrt.input_bytes, 0.0);
    if (mt.type == ResourceType::kCpu) {
      const CollapsedOp& cop = plan().cop(mt.cop);
      cpu_seconds_used_ +=
          (cop.cost.fixed_cpu_work + mrt.input_bytes * cop.cost.cpu_complexity) /
          cluster_->config().worker.cpu_byte_rate;
    }
    for (MonotaskId dep : mt.intask_dependents) {
      --monotasks_[static_cast<size_t>(dep)].remaining_deps;
    }
    --tasks_[static_cast<size_t>(mt.task)].remaining_monotasks;
  }
  // Task states. Completed tasks re-complete without side effects; placed
  // tasks are restored WITHOUT TryAllocateMemory — their memory charges are
  // worker-side state and survived the crash.
  for (const TaskSpec& task : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    const TaskImage& ti = image.tasks[static_cast<size_t>(task.id)];
    rt.generation = ti.generation;
    if (ti.done) {
      SetState(task.id, TaskState::kCompleted);
      rt.worker = ti.worker;
      rt.timing.ready_time = ti.place_time;
      rt.timing.place_time = ti.place_time;
      rt.timing.finish_time = ti.finish_time;
      ++completed_tasks_;
      StageRuntime& srt = stages_[static_cast<size_t>(task.stage)];
      CHECK_GT(srt.remaining_tasks, 0);
      --srt.remaining_tasks;
    } else if (ti.worker != kInvalidId) {
      SetState(task.id, TaskState::kPlaced);
      rt.worker = ti.worker;
      rt.allocated_memory = ti.allocated_memory;
      rt.actual_memory = ti.actual_memory;
      rt.timing.ready_time = ti.place_time;
      rt.timing.place_time = ti.place_time;
      rt.usage = UsageEstimator::EstimateTask(*job_, task.id, cluster_->metadata(), 0.0);
      // The pre-crash monotasks on the worker hold the old incarnation's
      // cancel token, so this execution can no longer be cancelled
      // cooperatively: mark it restored and keep it out of speculation.
      rt.cancel = nullptr;
      rt.restored = true;
      // A monotask was dispatched exactly when its last in-task dependency
      // completed; re-derive the flag (ResyncDispatches then re-sends any
      // dispatch the worker never acked).
      for (MonotaskId m : task.monotasks) {
        MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
        if (!mrt.done) {
          mrt.submitted = mrt.remaining_deps == 0;
        }
      }
    }
  }
  // Rebuild dependency counters and the readiness frontier (same
  // recomputation as lineage recovery's apply phase).
  ready_unplaced_.clear();
  ready_input_total_ = 0.0;
  for (const TaskSpec& spec : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(spec.id)];
    if (rt.state == TaskState::kCompleted || rt.state == TaskState::kPlaced) {
      continue;
    }
    SetState(spec.id, TaskState::kBlocked);
    int async_parents = 0;
    for (TaskId parent : spec.async_parents) {
      if (tasks_[static_cast<size_t>(parent)].state != TaskState::kCompleted) {
        ++async_parents;
      }
    }
    rt.remaining_async_parents = async_parents;
    int sync_stages = 0;
    for (StageId ps : spec.sync_parent_stages) {
      if (stages_[static_cast<size_t>(ps)].remaining_tasks > 0) {
        ++sync_stages;
      }
    }
    rt.remaining_sync_stages = sync_stages;
  }
  for (const TaskSpec& spec : plan().tasks()) {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(spec.id)];
    if (rt.state == TaskState::kBlocked && rt.remaining_async_parents == 0 &&
        rt.remaining_sync_stages == 0) {
      MarkReady(spec.id);
    }
  }
}

int JobManager::ResyncDispatches() {
  CHECK(ctrl_ != nullptr);
  int redispatched = 0;
  for (const TaskSpec& task : plan().tasks()) {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    if (rt.state != TaskState::kPlaced) {
      continue;
    }
    for (MonotaskId m : task.monotasks) {
      const MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
      if (!mrt.submitted || mrt.done) {
        continue;
      }
      MsgKey key;
      key.job = job_->id;
      key.incarnation = incarnation_;
      key.monotask = m;
      key.generation = rt.generation;
      key.attempt = mrt.attempts;
      key.channel = 0;
      if (ctrl_->Delivered(rt.worker, key)) {
        // The worker acked this dispatch before the crash: the orphan is
        // still queued or running there and its report will re-attach.
        continue;
      }
      // Either the send died with the old scheduler (fenced / never
      // delivered) or a retry-backoff event was lost in the crash.
      DispatchMonotask(m);
      ++redispatched;
    }
  }
  return redispatched;
}

void JobManager::ForfeitSpeculation() {
  if (aborted_ || finished()) {
    return;
  }
  for (const TaskSpec& task : plan().tasks()) {
    if (tasks_[static_cast<size_t>(task.id)].spec != nullptr) {
      // The copy's cancel/liveness tokens die with this JM: tear it down
      // deterministically instead of leaking the race onto the worker. A
      // primary_lost task left without a runner is re-seeded by the
      // post-recovery failed-worker reconciliation pass.
      CancelSpeculativeCopy(task.id, SpecEnd::kCancelled);
    }
  }
}

void JobManager::CompleteTask(TaskId t) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.state == TaskState::kPlaced);
  if (rt.spec != nullptr) {
    // The primary finished every monotask first: the copy loses the race.
    CancelSpeculativeCopy(t, SpecEnd::kLost);
  }
  if (spec_manager_ != nullptr && rt.timing.place_time >= 0.0) {
    // Feed the straggler detector. Speculatively-won tasks still measure
    // from the primary's placement: the duration the stage actually paid.
    stage_durations_[static_cast<size_t>(plan().task(t).stage)].Add(
        sim_->Now() - rt.timing.place_time);
  }
  SetState(t, TaskState::kCompleted);
  rt.timing.finish_time = sim_->Now();
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kTaskDone, job_->id, t, rt.worker, rt.generation,
                      rt.timing.place_time, 0.0, sim_->Now()});
  }
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(sim_->Now(), TraceEventKind::kTaskCompleted, job_->id, t,
                       plan().task(t).stage, rt.worker);
  }
  if (rt.recovering) {
    rt.recovering = false;
    CHECK_GT(recovering_outstanding_, 0);
    if (--recovering_outstanding_ == 0 && fault_stats_ != nullptr) {
      fault_stats_->RecordRecoveryLatency(sim_->Now() - recovery_start_);
    }
  }
  Worker& worker = cluster_->worker(rt.worker);
  worker.ReleaseMemory(rt.allocated_memory);
  worker.AddActualMemoryUse(-rt.actual_memory);
  ++completed_tasks_;
  listener_->OnTaskCompleted(job_->id, t);

  const TaskSpec& spec = plan().task(t);
  // Async children: same-index tasks of downstream stages. Children past the
  // blocked state are skipped: after lineage recovery a reset task can
  // re-complete while a child that survived the failure is already running
  // or done, and its dependency counters are long since spent.
  for (TaskId child : spec.async_children) {
    TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
    if (crt.state != TaskState::kBlocked) {
      continue;
    }
    CHECK_GT(crt.remaining_async_parents, 0);
    if (--crt.remaining_async_parents == 0 && crt.remaining_sync_stages == 0) {
      MarkReady(child);
    }
  }
  // Stage barrier: when the whole stage is done, release sync children.
  StageRuntime& srt = stages_[static_cast<size_t>(spec.stage)];
  CHECK_GT(srt.remaining_tasks, 0);
  if (--srt.remaining_tasks == 0) {
    for (StageId child_stage : plan().stage(spec.stage).sync_child_stages) {
      for (TaskId child : plan().stage(child_stage).tasks) {
        TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
        if (crt.state != TaskState::kBlocked) {
          continue;  // Barrier re-fired after recovery; child already moved on.
        }
        CHECK_GT(crt.remaining_sync_stages, 0);
        if (--crt.remaining_sync_stages == 0 && crt.remaining_async_parents == 0) {
          MarkReady(child);
        }
      }
    }
  }
  if (finished()) {
    finish_time_ = sim_->Now();
    placed_.shrink_to_fit();  // Empty now; finished job managers stay around.
    cluster_->metadata().DropJob(job_->id);
    listener_->OnJobFinished(job_->id);
  }
}

// --- Speculative execution (DESIGN.md section 9). ---

void JobManager::ConfigureSpeculation(SpeculationManager* manager) {
  spec_manager_ = manager;
  stage_durations_.assign(plan().stages().size(), RobustSample());
}

int JobManager::CountPlacedTasks() const { return static_cast<int>(placed_.size()); }

void JobManager::SetState(TaskId t, TaskState state) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  if (rt.state == TaskState::kPlaced && state != TaskState::kPlaced) {
    const size_t pos = static_cast<size_t>(rt.placed_pos);
    const TaskId last = placed_.back();
    placed_[pos] = last;
    tasks_[static_cast<size_t>(last)].placed_pos = static_cast<int>(pos);
    placed_.pop_back();
    rt.placed_pos = -1;
  } else if (rt.state != TaskState::kPlaced && state == TaskState::kPlaced) {
    rt.placed_pos = static_cast<int>(placed_.size());
    placed_.push_back(t);
  }
  rt.state = state;
}

void JobManager::CollectPlacedStages(std::vector<std::pair<WorkerId, StageId>>* out) const {
  if (aborted_) {
    return;
  }
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const TaskRuntime& rt = tasks_[t];
    if (rt.state != TaskState::kPlaced) {
      continue;
    }
    const StageId stage = plan().task(static_cast<TaskId>(t)).stage;
    if (rt.worker != kInvalidId && !rt.primary_lost) {
      out->emplace_back(rt.worker, stage);
    }
    if (rt.spec != nullptr && rt.spec->worker != kInvalidId) {
      out->emplace_back(rt.spec->worker, stage);
    }
  }
}

void JobManager::CollectStragglerCandidates(double now,
                                            std::vector<StragglerCandidate>* out) const {
  const size_t first = out->size();
  StragglerCandidate cand;
  for (TaskId t : placed_) {
    if (StragglerCandidateFor(t, now, &cand)) {
      out->push_back(cand);
    }
  }
  // Plan order: the scheduler's ranking is a stable sort, so ties keep it.
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const StragglerCandidate& a, const StragglerCandidate& b) {
              return a.task < b.task;
            });
}

bool JobManager::StragglerCandidateFor(TaskId t, double now, StragglerCandidate* cand) const {
  if (spec_manager_ == nullptr || aborted_ || finished()) {
    return false;
  }
  const TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  if (rt.state != TaskState::kPlaced || rt.spec != nullptr || rt.primary_lost || rt.restored) {
    // `restored`: the placement survived a scheduler crash, but its cancel
    // token did not — a copy could never cancel it, so don't race one.
    return false;
  }
  if (rt.worker == kInvalidId || cluster_->worker(rt.worker).failed()) {
    return false;  // Lineage recovery owns this one.
  }
  const TaskSpec& task = plan().task(t);
  const double elapsed = now - rt.timing.place_time;
  if (!IsStraggler(spec_manager_->config(), stage_durations_[static_cast<size_t>(task.stage)],
                   elapsed)) {
    return false;
  }
  *cand = StragglerCandidate{};
  cand->job = job_->id;
  cand->task = t;
  cand->stage = task.stage;
  cand->worker = rt.worker;
  cand->elapsed = elapsed;
  double total = 0.0;
  for (size_t r = 0; r < kNumMonotaskResources; ++r) {
    cand->bytes[r] = rt.usage.bytes[r];
    total += rt.usage.bytes[r];
  }
  double done = 0.0;
  for (MonotaskId m : task.monotasks) {
    const MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    if (mrt.done) {
      done += mrt.input_bytes;
    }
  }
  cand->memory = rt.allocated_memory;
  cand->estimated_time_to_finish =
      EstimatedTimeToFinish(elapsed, total > 0.0 ? done / total : 0.0);
  return true;
}

bool JobManager::PlaceSpeculative(TaskId t, WorkerId worker_id) {
  CHECK(spec_manager_ != nullptr);
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  if (rt.state != TaskState::kPlaced || rt.spec != nullptr || rt.primary_lost ||
      worker_id == rt.worker) {
    return false;
  }
  Worker& worker = cluster_->worker(worker_id);
  if (worker.failed() || !worker.TryAllocateMemory(rt.allocated_memory)) {
    return false;
  }
  const TaskSpec& spec = plan().task(t);
  auto copy = std::make_unique<SpecCopy>();
  copy->worker = worker_id;
  copy->channel = 1 + spec_seq_++;
  copy->start_time = sim_->Now();
  copy->allocated_memory = rt.allocated_memory;
  copy->actual_memory = rt.actual_memory;
  worker.AddActualMemoryUse(copy->actual_memory);
  const size_t n = spec.monotasks.size();
  copy->remaining_monotasks = static_cast<int>(n);
  copy->remaining_deps.resize(n);
  copy->submitted.assign(n, 0);
  copy->done.assign(n, 0);
  copy->input_bytes.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    copy->remaining_deps[i] =
        static_cast<int>(plan().monotask(spec.monotasks[i]).intask_deps.size());
  }
  rt.spec = std::move(copy);
  spec_manager_->OnLaunched();
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(sim_->Now(), TraceEventKind::kSpecLaunched, job_->id, t,
                       spec.stage, worker_id);
  }
  // Completion events are scheduled, never synchronous, so this loop cannot
  // re-enter the copy's state.
  for (size_t i = 0; i < n; ++i) {
    if (rt.spec->remaining_deps[i] == 0) {
      SubmitSpecMonotask(t, static_cast<int>(i));
    }
  }
  return true;
}

void JobManager::SubmitSpecMonotask(TaskId t, int idx) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  SpecCopy& copy = *rt.spec;
  CHECK(!copy.submitted[static_cast<size_t>(idx)]);
  copy.submitted[static_cast<size_t>(idx)] = 1;
  const TaskSpec& spec = plan().task(t);
  const MonotaskId m = spec.monotasks[static_cast<size_t>(idx)];
  const MonotaskSpec& mt = plan().monotask(m);
  const CollapsedOp& cop = plan().cop(mt.cop);

  RunnableMonotask run;
  run.job = job_->id;
  run.id = m;
  run.type = mt.type;
  run.job_priority = priority_;
  run.cancel = copy.cancel;
  // Inputs produced inside the copy come from its local buffer; everything
  // from outside the task is already committed metadata (parents completed).
  double input = 0.0;
  if (mt.type == ResourceType::kNetwork) {
    run.pulls = UsageEstimator::ResolvePulls(*job_, m, cluster_->metadata(), &copy.outputs,
                                             copy.worker, &input);
  } else {
    input = UsageEstimator::MonotaskInputBytes(*job_, m, cluster_->metadata(), &copy.outputs);
    run.work = mt.type == ResourceType::kCpu
                   ? cop.cost.fixed_cpu_work + input * cop.cost.cpu_complexity
                   : input;
  }
  copy.input_bytes[static_cast<size_t>(idx)] = input;
  run.input_bytes = input;
  if (use_intra_ordering_) {
    const double stage_major = static_cast<double>(spec.stage) * 1e15;
    run.intra_key = stage_major + (mt.type == ResourceType::kCpu ? -input : input);
  } else {
    run.intra_key = 0.0;
  }
  // The copy's liveness token replaces generation bookkeeping: deciding the
  // race (either way) destroys the copy and disarms every pending callback.
  auto on_complete = [this, t, idx, alive = std::weak_ptr<const bool>(copy.alive)] {
    if (alive.expired()) {
      return;
    }
    OnSpecMonotaskComplete(t, idx);
  };
  auto on_failure = [this, t, idx, alive = std::weak_ptr<const bool>(copy.alive)] {
    if (alive.expired()) {
      return;
    }
    OnSpecMonotaskFailed(t, idx);
  };
  if (ctrl_ != nullptr) {
    // Copy reports ride the reliable notify channel; their routing state is
    // the liveness token (a scheduler crash forfeits every copy, expiring the
    // token, so late deliveries are no-ops rather than misroutes).
    ControlPlane* ctrl = ctrl_;
    const WorkerId cw = copy.worker;
    run.on_complete = [ctrl, cw, cb = std::move(on_complete)] {
      ctrl->NotifyScheduler(cw, cb);
    };
    run.on_failure = [ctrl, cw, cb = std::move(on_failure)] {
      ctrl->NotifyScheduler(cw, cb);
    };
    MsgKey key;
    key.job = job_->id;
    key.incarnation = incarnation_;
    key.monotask = m;
    key.generation = rt.generation;
    key.attempt = 0;
    key.channel = copy.channel;
    ctrl->Dispatch(copy.worker, key, std::move(run));
    return;
  }
  run.on_complete = std::move(on_complete);
  run.on_failure = std::move(on_failure);
  cluster_->worker(copy.worker).Submit(std::move(run));
}

void JobManager::OnSpecMonotaskComplete(TaskId t, int idx) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.spec != nullptr);
  SpecCopy& copy = *rt.spec;
  if (copy.done[static_cast<size_t>(idx)]) {
    return;  // Duplicate delivery; the dependent fan-out already ran.
  }
  copy.done[static_cast<size_t>(idx)] = 1;
  const TaskSpec& spec = plan().task(t);
  const MonotaskId m = spec.monotasks[static_cast<size_t>(idx)];
  const MonotaskSpec& mt = plan().monotask(m);
  // Buffer outputs locally; they reach the metadata store only on a win.
  for (OutputRecord& rec : UsageEstimator::ComputeOutputs(
           *job_, m, copy.input_bytes[static_cast<size_t>(idx)])) {
    copy.outputs.push_back(rec);
  }
  for (MonotaskId dep : mt.intask_dependents) {
    const int didx = IndexInTask(spec, dep);
    CHECK_GT(copy.remaining_deps[static_cast<size_t>(didx)], 0);
    if (--copy.remaining_deps[static_cast<size_t>(didx)] == 0) {
      SubmitSpecMonotask(t, didx);
    }
  }
  CHECK_GT(copy.remaining_monotasks, 0);
  if (--copy.remaining_monotasks == 0) {
    OnSpecWin(t);
  }
}

void JobManager::OnSpecMonotaskFailed(TaskId t, int idx) {
  (void)idx;
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.spec != nullptr);
  const bool solo = rt.primary_lost;
  // Copies get no retries: speculation is best-effort and the straggler
  // detector can always launch a new copy later.
  CancelSpeculativeCopy(t, SpecEnd::kCancelled);
  if (solo) {
    // The copy was the only live execution (primary's worker died): escalate
    // like a worker loss so the task is re-placed from scratch.
    if (fault_stats_ != nullptr) {
      fault_stats_->RecordEscalation();
    }
    ResetTaskForReplacement(t);
  }
}

void JobManager::OnSpecWin(TaskId t) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  const std::unique_ptr<SpecCopy> copy = std::move(rt.spec);
  const TaskSpec& spec = plan().task(t);
  const double now = sim_->Now();
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(now, TraceEventKind::kSpecWon, job_->id, t, spec.stage,
                       copy->worker);
  }
  // 1. Cancel the primary execution: queued monotasks are dequeued before
  // they charge anything; in-flight ones are disarmed and their elapsed busy
  // time flows into the waste counters through the worker's waste sink.
  if (rt.cancel != nullptr) {
    rt.cancel->cancelled = true;
  }
  const bool primary_alive =
      !rt.primary_lost && rt.worker != kInvalidId && !cluster_->worker(rt.worker).failed();
  if (primary_alive) {
    Worker& pworker = cluster_->worker(rt.worker);
    pworker.SweepCancelled();
    pworker.ReleaseMemory(rt.allocated_memory);
    pworker.AddActualMemoryUse(-rt.actual_memory);
  }
  // 2. Monotasks the primary had already finished are duplicate work now.
  for (MonotaskId m : spec.monotasks) {
    const MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    if (mrt.done) {
      spec_manager_->RecordWaste(now, plan().monotask(m).type, mrt.input_bytes,
                                 EstimateWasteSeconds(m, mrt.input_bytes));
    }
  }
  // 3. Commit the copy's buffered outputs at its worker. This overwrites the
  // primary's partial Puts, so lineage tracks the surviving replica. No
  // consumer has read the primary's entries: downstream tasks only read
  // after this task completes.
  for (const OutputRecord& rec : copy->outputs) {
    cluster_->metadata().Put(job_->id, rec.data, rec.partition, rec.bytes, copy->worker);
  }
  // 4. Catch up per-monotask accounting for work the primary never finished,
  // so a later lineage reset of this task round-trips correctly.
  for (size_t i = 0; i < spec.monotasks.size(); ++i) {
    const MonotaskId m = spec.monotasks[i];
    MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    if (mrt.done) {
      continue;
    }
    mrt.done = true;
    mrt.submitted = true;
    mrt.attempts = 0;
    mrt.input_bytes = copy->input_bytes[i];
    if (journal_ != nullptr) {
      journal_->Append({JournalKind::kMonoDone, job_->id, m, copy->worker,
                        rt.generation, mrt.input_bytes, 0.0, now});
    }
    const MonotaskSpec& mt = plan().monotask(m);
    auto& remaining = remaining_work_[static_cast<size_t>(mt.type)];
    remaining = std::max(remaining - mrt.input_bytes, 0.0);
    if (mt.type == ResourceType::kCpu) {
      const CollapsedOp& cop = plan().cop(mt.cop);
      cpu_seconds_used_ +=
          (cop.cost.fixed_cpu_work + mrt.input_bytes * cop.cost.cpu_complexity) /
          cluster_->config().worker.cpu_byte_rate;
    }
    listener_->OnMonotaskCompleted(job_->id, mt.type, mrt.input_bytes);
  }
  rt.remaining_monotasks = 0;
  // 5. The copy's worker inherits the task; CompleteTask releases the copy's
  // memory there and records completion against it.
  rt.worker = copy->worker;
  rt.allocated_memory = copy->allocated_memory;
  rt.actual_memory = copy->actual_memory;
  rt.primary_lost = false;
  spec_manager_->OnWon();
  CompleteTask(t);
}

void JobManager::CancelSpeculativeCopy(TaskId t, SpecEnd reason) {
  TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
  CHECK(rt.spec != nullptr);
  const std::unique_ptr<SpecCopy> copy = std::move(rt.spec);
  const TaskSpec& spec = plan().task(t);
  const double now = sim_->Now();
  copy->cancel->cancelled = true;
  Worker& worker = cluster_->worker(copy->worker);
  if (!worker.failed()) {
    // Dequeue the copy's queued monotasks and disarm in-flight ones (their
    // busy time reaches the waste counters via the worker's waste sink).
    worker.SweepCancelled();
    worker.ReleaseMemory(copy->allocated_memory);
    worker.AddActualMemoryUse(-copy->actual_memory);
  }
  // Monotasks the copy finished are pure duplicate work.
  for (size_t i = 0; i < spec.monotasks.size(); ++i) {
    if (!copy->done[i]) {
      continue;
    }
    const MonotaskId m = spec.monotasks[i];
    spec_manager_->RecordWaste(now, plan().monotask(m).type, copy->input_bytes[i],
                               EstimateWasteSeconds(m, copy->input_bytes[i]));
  }
  if (reason == SpecEnd::kLost) {
    spec_manager_->OnLost();
  } else {
    spec_manager_->OnCancelled();
  }
  if (tracer_ != nullptr) {
    tracer_->TaskEvent(now,
                       reason == SpecEnd::kLost ? TraceEventKind::kSpecLost
                                                : TraceEventKind::kSpecCancelled,
                       job_->id, t, spec.stage, copy->worker);
  }
}

void JobManager::HandleWorkerFailureForSpeculation(WorkerId worker) {
  if (spec_manager_ == nullptr || aborted_ || finished()) {
    return;
  }
  for (const TaskSpec& task : plan().tasks()) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
    if (rt.spec != nullptr && rt.spec->worker == worker) {
      // Copies die with their worker; the primary (or lineage) carries on.
      CancelSpeculativeCopy(task.id, SpecEnd::kCancelled);
    }
    if (rt.state == TaskState::kPlaced && rt.worker == worker && rt.spec != nullptr) {
      // A live copy elsewhere survives the primary's death: the race becomes
      // a solo run and the task must not be treated as lost. The dead
      // worker's memory ledger was wiped at Fail(); drop the stale claim so
      // a later reset or abort cannot release it against the worker after a
      // rejoin.
      rt.primary_lost = true;
      rt.allocated_memory = 0.0;
      rt.actual_memory = 0.0;
    }
  }
}

double JobManager::EstimateWasteSeconds(MonotaskId m, double input_bytes) const {
  const MonotaskSpec& mt = plan().monotask(m);
  const WorkerConfig& wc = cluster_->config().worker;
  switch (mt.type) {
    case ResourceType::kCpu: {
      const CollapsedOp& cop = plan().cop(mt.cop);
      return (cop.cost.fixed_cpu_work + input_bytes * cop.cost.cpu_complexity) /
             wc.cpu_byte_rate;
    }
    case ResourceType::kDisk:
      return input_bytes / wc.disk_bytes_per_sec;
    case ResourceType::kNetwork:
      return wc.default_net_rate > 0.0 ? input_bytes / wc.default_net_rate : 0.0;
  }
  return 0.0;
}

}  // namespace ursa
