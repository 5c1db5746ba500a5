// The job manager (JM) of section 4.1.3 / 4.2.1.
//
// One JM exists per submitted job. It walks the execution plan at runtime:
// tracks which tasks are ready (all parent tasks / parent stages completed),
// reports ready tasks and their estimated resource usage to the scheduler,
// and - once the scheduler picks a worker - streams the task's monotasks to
// that worker's per-resource queues exactly when each monotask becomes
// runnable. Completed monotasks report back, update the metadata store, and
// release their resources immediately (Obj-1 and Obj-2).
//
// The JM also maintains the job's remaining per-resource work vector R used
// by the SRJF ordering policy.
#ifndef SRC_EXEC_JOB_MANAGER_H_
#define SRC_EXEC_JOB_MANAGER_H_

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/dag/job.h"
#include "src/exec/cluster.h"
#include "src/exec/estimator.h"
#include "src/fault/fault_stats.h"
#include "src/spec/speculation.h"

namespace ursa {

class ControlPlane;
class Journal;
struct JobImage;
class Tracer;

// Callbacks from a job manager to the scheduling layer / driver.
class JobManagerListener {
 public:
  virtual ~JobManagerListener() = default;
  virtual void OnTaskReady([[maybe_unused]] JobId job, [[maybe_unused]] TaskId task) {}
  virtual void OnTaskCompleted([[maybe_unused]] JobId job, [[maybe_unused]] TaskId task) {}
  virtual void OnMonotaskCompleted([[maybe_unused]] JobId job,
                                   [[maybe_unused]] ResourceType type,
                                   [[maybe_unused]] double input_bytes) {}
  virtual void OnJobFinished([[maybe_unused]] JobId job) {}
};

enum class TaskState : int {
  kBlocked = 0,
  kReady = 1,
  kPlaced = 2,
  kCompleted = 3,
};

class JobManager {
 public:
  JobManager(Simulator* sim, Cluster* cluster, Job* job, JobManagerListener* listener);

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Resolves initial ready tasks and notifies the listener.
  void Start();

  // Aborts execution after a worker failure (section 4.3): releases the
  // memory of in-flight tasks, suppresses outstanding monotask callbacks,
  // and drops the job's metadata. The scheduler then re-runs the job from
  // its input checkpoint with a fresh JobManager.
  void Abort();
  bool aborted() const { return aborted_; }

  // Whether any incomplete task is placed on `worker`, or any completed
  // task's outputs live there (either makes a failure of `worker` fatal for
  // the job).
  bool DependsOnWorker(WorkerId worker) const;

  // --- Fault tolerance (section 4.3). ---
  // Retry policy for transient monotask failures; `stats` (may be null)
  // receives retry/recovery counters.
  void ConfigureFaultPolicy(int max_attempts, double backoff_base, double backoff_cap,
                            FaultStats* stats);

  struct RecoveryResult {
    int tasks_reset = 0;           // Tasks returned to the blocked/ready pool.
    int tasks_started_before = 0;  // Placed+completed tasks a full restart would redo.
    // True when the job cannot be repaired at stage granularity (its
    // checkpointed inputs are gone) and must restart from the checkpoint.
    // External job inputs are durable in this model, so this only trips if
    // that ever changes.
    bool inputs_lost = false;
  };
  // Stage-level lineage recovery: determines which task results died with
  // `failed` (in-flight placements and completed outputs that are still
  // needed downstream), resets exactly those tasks and their invalidated
  // dependents, and rebuilds the readiness frontier. Tasks running on
  // healthy workers keep running; completed tasks whose outputs were already
  // fully consumed are not re-executed. Returns how much work was reset.
  RecoveryResult RecoverFromWorkerFailure(WorkerId failed);

  // Worker the scheduler should avoid for this ready task (set after retry
  // exhaustion escalates to re-placement); kInvalidId when unconstrained.
  WorkerId avoided_worker(TaskId t) const {
    return tasks_[static_cast<size_t>(t)].avoid_worker;
  }

  // --- Control-plane integration (DESIGN.md section 14). ---
  // Routes dispatches and completion/failure reports through the message
  // layer instead of direct calls. Null (the default) keeps the synchronous
  // code path, byte-identical to the pre-message-layer behavior.
  void set_control_plane(ControlPlane* ctrl) { ctrl_ = ctrl; }
  // Decision journal receiving placement/completion/reset records for
  // crash-recovery replay. Null disables journaling.
  void set_journal(Journal* journal) { journal_ = journal; }
  // Incarnation of this JM for the job (bumped on every full restart and on
  // journal-less crash recovery); stale wire reports are fenced against it.
  void set_incarnation(int incarnation) { incarnation_ = incarnation; }
  int incarnation() const { return incarnation_; }

  // Wire-delivery entry points for identity-addressed completion/failure
  // reports. They dedup duplicates (done-flag / attempt mismatch) before
  // handing off to the direct handlers, making the endpoints idempotent
  // under message duplication and retransmission.
  void OnMonotaskCompleteWire(MonotaskId m, int generation, int attempt);
  void OnMonotaskFailedWire(MonotaskId m, int generation, int attempt);

  // --- Scheduler crash-recovery (DESIGN.md section 14). ---
  // Rebuilds runtime state from a journal image instead of Start(): folds in
  // completed monotasks without re-running their side effects (their outputs
  // already live in the metadata store, which is worker-side state), restores
  // placements without re-allocating worker memory (the charges survive the
  // scheduler crash), and rebuilds the readiness frontier.
  void RestoreFromImage(const JobImage& image);

  // Post-recovery reconciliation: re-sends every dispatch of a restored
  // placement that the worker never acked (the send died with the old
  // scheduler, or a pending retry-backoff event was lost in the crash).
  // Returns the number of re-dispatched monotasks.
  int ResyncDispatches();

  // Cancels every live speculative copy (called when the scheduler crashes:
  // the copies' cancel/liveness tokens would die with this JM, so they are
  // torn down deterministically instead of leaking onto workers).
  void ForfeitSpeculation();

  // --- Speculative execution (DESIGN.md section 9). ---
  // Enables straggler detection and speculative copies. `manager` (owned by
  // the scheduler, shared by all jobs) enforces the global budget and
  // receives all speculation accounting. Must outlive this JM.
  void ConfigureSpeculation(SpeculationManager* manager);

  // Appends this job's placed tasks that look like stragglers (elapsed time
  // beyond the robust stage threshold) to `out`, in task order. The caller
  // ranks them and decides, under the budget, which get a copy. Walks only
  // the placed tasks.
  void CollectStragglerCandidates(double now, std::vector<StragglerCandidate>* out) const;

  // The straggler rule for one task: fills `cand` and returns true when
  // task `t` is placed, eligible for a copy and past its stage's limit.
  bool StragglerCandidateFor(TaskId t, double now, StragglerCandidate* cand) const;

  // Launches a speculative copy of placed task `t` on `worker`. The copy
  // runs the task's full monotask DAG there, buffering its outputs locally;
  // whichever execution finishes all monotasks first wins and the loser is
  // cancelled. Returns false when `worker` is the primary's worker, failed,
  // or lacks memory — or the task already has a copy.
  bool PlaceSpeculative(TaskId t, WorkerId worker);

  // Tears down speculative state touched by a failure of `worker`: copies
  // running there are cancelled; a primary lost there hands the task over to
  // its surviving copy. Called by the scheduler for every worker failure
  // (with or without lineage recovery) before RecoverFromWorkerFailure.
  void HandleWorkerFailureForSpeculation(WorkerId worker);

  // Placed-but-unfinished tasks (the speculation budget's denominator).
  int CountPlacedTasks() const;
  // Those tasks, in no particular order.
  const std::vector<TaskId>& placed_tasks() const { return placed_; }

  // Appends one (worker, stage) pair per live execution of a placed task —
  // the primary (unless its worker was lost) and any speculative copy. The
  // scheduler's co-location learner builds its per-tick residency snapshot
  // from this (DESIGN.md section 13).
  void CollectPlacedStages(std::vector<std::pair<WorkerId, StageId>>* out) const;

  // Test/inspection hooks.
  bool has_speculative_copy(TaskId t) const {
    return tasks_[static_cast<size_t>(t)].spec != nullptr;
  }
  WorkerId speculative_worker(TaskId t) const {
    const TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
    return rt.spec != nullptr ? rt.spec->worker : kInvalidId;
  }
  bool primary_lost(TaskId t) const { return tasks_[static_cast<size_t>(t)].primary_lost; }

  Job& job() { return *job_; }
  const Job& job() const { return *job_; }
  JobId job_id() const { return job_->id; }

  // --- Scheduler-facing interface. ---
  // Ready-but-unplaced tasks (the scheduler's placement candidates).
  const std::vector<TaskId>& ready_tasks() const { return ready_unplaced_; }
  // Usage estimate for a ready task; per-resource bytes are cached at
  // ready-time, memory is refreshed against the current ready set.
  TaskUsage GetUsage(TaskId task) const;
  // Places a ready task on a worker. Allocates its estimated memory there;
  // returns false (and leaves the task ready) if the worker lacks memory.
  bool PlaceTask(TaskId task, WorkerId worker);

  // Attaches an event tracer (src/obs) recording task milestones. Not owned.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Job priority used for monotask queue ordering; set by the scheduler.
  double priority() const { return priority_; }
  void set_priority(double p) { priority_ = p; }

  // When false, monotasks are enqueued FIFO (intra-job ordering disabled;
  // the "MO" ablation of Table 6).
  void set_use_intra_ordering(bool enabled) { use_intra_ordering_ = enabled; }

  // Remaining per-resource work R (bytes), for SRJF (section 4.2.2).
  const std::array<double, kNumMonotaskResources>& remaining_work() const {
    return remaining_work_;
  }

  // --- State inspection. ---
  bool finished() const { return completed_tasks_ == static_cast<int>(plan().tasks().size()); }
  int completed_tasks() const { return completed_tasks_; }
  int total_tasks() const { return static_cast<int>(plan().tasks().size()); }
  TaskState task_state(TaskId t) const { return tasks_[static_cast<size_t>(t)].state; }
  WorkerId task_worker(TaskId t) const { return tasks_[static_cast<size_t>(t)].worker; }
  double finish_time() const { return finish_time_; }
  // Total CPU-seconds of actual compute the job consumed (for reports).
  double cpu_seconds_used() const { return cpu_seconds_used_; }

  struct TaskTiming {
    double ready_time = -1.0;
    double place_time = -1.0;
    double finish_time = -1.0;
  };
  const TaskTiming& task_timing(TaskId t) const {
    return tasks_[static_cast<size_t>(t)].timing;
  }

 private:
  // Runtime state of one live speculative copy. The copy re-runs the task's
  // whole monotask DAG on another worker; per-monotask state is indexed by
  // position in TaskSpec::monotasks. Outputs stay buffered in `outputs`
  // until the copy wins (then they are committed to the metadata store at
  // the copy's worker, making lineage point at the surviving replica); a
  // losing copy's buffer is simply dropped.
  struct SpecCopy {
    WorkerId worker = kInvalidId;
    // Message channel for the copy's dispatches (1 + per-job launch seq),
    // keeping its wire keys disjoint from the primary's (channel 0).
    int channel = 0;
    double start_time = 0.0;
    double allocated_memory = 0.0;
    double actual_memory = 0.0;
    int remaining_monotasks = 0;
    // Flipped to cancel the copy's queued / in-flight monotasks.
    std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
    // Liveness token for the copy's callbacks: destroying the copy (race
    // decided, worker failure, lineage reset) disarms them, so no generation
    // bookkeeping is needed on this side.
    std::shared_ptr<const bool> alive = std::make_shared<const bool>(true);
    std::vector<OutputRecord> outputs;
    std::vector<int> remaining_deps;
    std::vector<char> submitted;
    std::vector<char> done;
    std::vector<double> input_bytes;
  };

  struct TaskRuntime {
    TaskState state = TaskState::kBlocked;
    int remaining_async_parents = 0;
    int remaining_sync_stages = 0;
    int remaining_monotasks = 0;
    WorkerId worker = kInvalidId;
    TaskUsage usage;          // bytes/input cached at ready time.
    double allocated_memory = 0.0;
    double actual_memory = 0.0;
    TaskTiming timing;
    // Bumped whenever the task's execution is invalidated (lineage reset or
    // re-placement); in-flight monotask callbacks from older generations are
    // ignored.
    int generation = 0;
    // Set after retry exhaustion: prefer any other worker at re-placement.
    WorkerId avoid_worker = kInvalidId;
    // Task is re-executing due to lineage recovery (for recovery latency).
    bool recovering = false;
    // Live speculative copy, if any.
    std::unique_ptr<SpecCopy> spec;
    // Cancellation token shared by the primary execution's monotasks
    // (created at placement when speculation is enabled); flipped when the
    // copy wins the race.
    std::shared_ptr<CancelToken> cancel;
    // The primary's worker died while a copy was live: the copy is the only
    // runner left, and a failure on it escalates to a full task reset.
    bool primary_lost = false;
    // Placement restored from a crash-recovery journal image. The original
    // cancel token died with the old scheduler, so the execution can no
    // longer be cancelled cooperatively; speculation skips such tasks.
    bool restored = false;
    // Index in placed_ while the task is placed, -1 otherwise.
    int placed_pos = -1;
  };
  struct MonotaskRuntime {
    int remaining_deps = 0;
    bool submitted = false;
    bool done = false;
    int attempts = 0;  // Failed attempts on the current worker.
    double input_bytes = 0.0;
  };
  struct StageRuntime {
    int remaining_tasks = 0;
  };

  const ExecutionPlan& plan() const { return job_->plan; }
  // Every task state change goes through here, keeping placed_ exact.
  void SetState(TaskId t, TaskState state);
  void MarkReady(TaskId t);
  void SubmitMonotask(MonotaskId m);
  // Builds the RunnableMonotask for a submitted monotask and hands it to the
  // worker — directly, or through the control plane's reliable dispatch
  // channel when one is attached. Split from SubmitMonotask so the
  // post-recovery resync can re-send a dispatch without re-running the
  // submission bookkeeping.
  void DispatchMonotask(MonotaskId m);
  void OnMonotaskComplete(MonotaskId m, int generation);
  void OnMonotaskFailed(MonotaskId m, int generation);
  void ResubmitMonotask(MonotaskId m, int generation);
  // Resets a placed task's monotask progress and returns it to the ready
  // pool, avoiding its previous worker (retry-exhaustion escalation).
  void ResetTaskForReplacement(TaskId t);
  // Restores the runtime counters of one task to its never-started state
  // (returning completed monotask bytes to remaining_work_).
  void ResetTaskRuntime(TaskId t);
  // Whether a metadata entry the completed task `t` wrote is gone, i.e. the
  // worker holding its outputs failed at some point after it completed.
  bool OutputsLost(TaskId t) const;
  void CompleteTask(TaskId t);
  void RemoveFromReady(TaskId t);

  // Speculation internals (DESIGN.md section 9).
  void SubmitSpecMonotask(TaskId t, int idx);
  void OnSpecMonotaskComplete(TaskId t, int idx);
  void OnSpecMonotaskFailed(TaskId t, int idx);
  // The copy finished every monotask first: cancel the primary execution,
  // commit the buffered outputs and complete the task from the copy's
  // worker.
  void OnSpecWin(TaskId t);
  enum class SpecEnd { kLost, kCancelled };
  // Tears down the live copy: flips its cancel token, sweeps its worker,
  // releases its memory and records its completed monotasks as wasted work.
  void CancelSpeculativeCopy(TaskId t, SpecEnd reason);
  // Approximate service time a monotask of `input_bytes` costs, for wasted-
  // work accounting of duplicates that ran to completion.
  double EstimateWasteSeconds(MonotaskId m, double input_bytes) const;

  Simulator* sim_;
  Cluster* cluster_;
  Job* job_;
  JobManagerListener* listener_;
  Tracer* tracer_ = nullptr;

  // Liveness token for callbacks that outlive this JM. Worker completion
  // callbacks and retry-backoff events capture a weak_ptr to it; once the JM
  // is destroyed (e.g. an aborted JM reclaimed after its job restarted) the
  // token expires and late callbacks become no-ops instead of use-after-free.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  std::vector<TaskRuntime> tasks_;
  std::vector<MonotaskRuntime> monotasks_;
  std::vector<StageRuntime> stages_;
  std::vector<TaskId> ready_unplaced_;
  std::vector<TaskId> placed_;
  double ready_input_total_ = 0.0;
  std::array<double, kNumMonotaskResources> remaining_work_ = {0.0, 0.0, 0.0};
  double priority_ = 0.0;
  bool use_intra_ordering_ = true;
  bool aborted_ = false;
  int completed_tasks_ = 0;
  double finish_time_ = -1.0;
  double cpu_seconds_used_ = 0.0;

  // Fault-tolerance policy and bookkeeping.
  int max_monotask_attempts_ = 3;
  double retry_backoff_base_ = 0.25;
  double retry_backoff_cap_ = 4.0;
  FaultStats* fault_stats_ = nullptr;
  int recovering_outstanding_ = 0;
  double recovery_start_ = -1.0;

  // Control plane / crash-recovery (null when disabled).
  ControlPlane* ctrl_ = nullptr;
  Journal* journal_ = nullptr;
  int incarnation_ = 0;
  // Per-job speculative-copy launch counter; 1 + seq is the copy's message
  // channel, keeping its dispatch keys disjoint from the primary's.
  int spec_seq_ = 0;

  // Speculation (null/empty when disabled).
  SpeculationManager* spec_manager_ = nullptr;
  // Completed task durations per stage, feeding the straggler threshold.
  std::vector<RobustSample> stage_durations_;
};

}  // namespace ursa

#endif  // SRC_EXEC_JOB_MANAGER_H_
