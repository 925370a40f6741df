// Asynchronous job execution over api::Service — the core of the served
// protocol.
//
// submit() turns any typed request (refgen / sweep / poles_zeros / batch)
// into a job on a fixed-size worker pool (support::WorkQueue) and returns a
// JobId immediately. The caller then polls, waits, or subscribes:
//
//   JobManager jobs(service, /*workers=*/4);
//   JobId id = jobs.submit(handle, request, on_progress, on_done);
//   ... jobs.poll(id) -> JobInfo{state, iterations so far, ...}
//   ... jobs.wait(id) -> shared JobOutcome{status, typed response}
//   ... jobs.cancel(id)
//
// Cancellation is cooperative and safe at any moment: a queued job
// completes immediately with kCancelled (it never runs); a running job's
// cancellation token trips the engine's per-iteration / per-point
// checkpoints and the job completes with kCancelled shortly after. The
// handle's plan and response caches remain valid either way — cancelling
// one request never poisons the next.
//
// Callback contract: on_progress fires on the worker thread running the job
// (once per engine iteration, refgen/poles_zeros only); on_done fires
// exactly once per job, on whichever thread completes it (a worker, or the
// cancel() caller for still-queued jobs). Callbacks must be fast and must
// not call back into wait() for their own job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/serialize.h"
#include "api/service.h"
#include "support/thread_pool.h"

namespace symref::api {

/// Monotonically increasing per-manager id; 0 is never assigned.
using JobId = std::uint64_t;

enum class JobState { kQueued, kRunning, kDone };

/// Stable snake_case token ("queued", "running", "done") — the wire value.
const char* job_state_name(JobState state) noexcept;

/// One engine iteration of a running job, streamed to on_progress.
struct JobProgress {
  JobId id = 0;
  int iteration = 0;
  const char* purpose = "";
  int points = 0;
  int evaluations = 0;
  int num_new_coefficients = 0;
  int den_new_coefficients = 0;
  double f_scale = 1.0;
  double g_scale = 1.0;
};

/// Terminal result of a job: the job-level status plus the response of the
/// request's type (only the matching member is meaningful, and only when
/// status.ok()). A cancelled job carries kCancelled here; a job whose
/// deadline expired carries kDeadlineExceeded.
struct JobOutcome {
  Status status;
  AnyRequest::Type type = AnyRequest::Type::kRefgen;
  RefgenResponse refgen;
  SweepResponse sweep;
  PolesZerosResponse poles_zeros;
  BatchResponse batch;
  ParamSweepResponse param_sweep;
  SimplifyResponse simplify;
  OpResponse op;
  TransientResponse transient;
  /// Pre-serialized wire payload (submit_stored: a reference-store hit).
  /// When non-null and status is ok, to_json returns it verbatim — the
  /// stored bytes ARE the contract (byte-identical replay across restarts).
  Json raw;
};

/// Wire form of an outcome: the typed response envelope on success, the
/// uniform {"type", "status"} error payload otherwise. Computed outcomes
/// come back as encoded text (JsonWriter); a store hit as its parsed tree.
Json to_json(const JobOutcome& outcome);

/// Point-in-time job snapshot (poll / list).
struct JobInfo {
  JobId id = 0;
  JobState state = JobState::kQueued;
  AnyRequest::Type type = AnyRequest::Type::kRefgen;
  /// Label of the compiled circuit the job runs against.
  std::string circuit;
  /// Engine iterations completed so far (refgen/poles_zeros jobs).
  int iterations = 0;
  bool cancel_requested = false;
  /// Since submit while live; total lifetime once done.
  double seconds = 0.0;
  /// Execution attempts started (> 1 after transient-failure retries).
  int attempts = 0;
};

using JobProgressFn = std::function<void(const JobProgress&)>;
using JobDoneFn = std::function<void(JobId, const JobOutcome&)>;

/// Exponential backoff with deterministic jitter for transient-classified
/// failures (status_is_transient: kUnavailable / kOverloaded / kIoError).
/// max_attempts counts executions, so 1 means "no retry". Delay before
/// attempt k+1 is min(initial * multiplier^(k-1), max) * U where U is a
/// jitter factor in [0.5, 1.5) drawn from a splitmix64 stream seeded by
/// (jitter_seed, job id, k) — reproducible, but decorrelated across jobs.
struct RetryPolicy {
  int max_attempts = 1;
  double initial_backoff_ms = 25.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1000.0;
  std::uint64_t jitter_seed = 0;
};

/// Per-submit knobs beyond the request payload itself.
struct SubmitOptions {
  JobProgressFn on_progress;
  JobDoneFn on_done;
  /// Wall-clock budget from submit, in milliseconds (0 = none). Enforced
  /// through the job's CancellationToken at the engine's cooperative
  /// checkpoints; an expired job completes with kDeadlineExceeded. A job
  /// still queued at expiry completes immediately without running.
  double deadline_ms = 0.0;
  RetryPolicy retry;
};

class JobManager {
 public:
  /// `workers` <= 0 picks the hardware thread count. `max_retained_jobs`
  /// bounds the finished-job history: once exceeded, the oldest done jobs
  /// are forgotten (their ids then poll as kNotFound). `max_queue_depth`
  /// bounds tasks waiting for a worker (0 = unbounded): a submit that
  /// finds the queue full completes immediately with kOverloaded — the
  /// shed-load half of the backpressure contract.
  explicit JobManager(const Service& service, int workers = 0,
                      std::size_t max_retained_jobs = 4096, std::size_t max_queue_depth = 0);
  /// Cancels every live job, waits for running ones to stop at their next
  /// checkpoint, and joins the workers.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueue a request against a compiled handle. Never blocks on the job
  /// itself. An invalid handle still produces a job; it completes with
  /// kInvalidArgument (uniform error reporting for remote callers).
  JobId submit(const CircuitHandle& handle, AnyRequest request,
               JobProgressFn on_progress = {}, JobDoneFn on_done = {});

  /// submit() with deadline and retry policy.
  JobId submit(const CircuitHandle& handle, AnyRequest request, SubmitOptions options);

  /// Register an already-materialized result (a reference-store hit) as an
  /// immediately-done job: same id space, same on_done/wait/poll lifecycle
  /// as a computed job, but `stored` is returned verbatim as the outcome's
  /// wire payload — no worker involved.
  JobId submit_stored(const CircuitHandle& handle, AnyRequest request, Json stored,
                      JobDoneFn on_done = {});

  /// Snapshot; kNotFound for unknown/forgotten ids.
  [[nodiscard]] Result<JobInfo> poll(JobId id) const;

  /// Block until the job completes AND its on_done callback returned — so
  /// anything the callback emitted (a daemon's done event) is ordered
  /// before wait() returns. The outcome carries the job's own status
  /// (kCancelled for cancelled jobs) and is shared with the job, not
  /// copied: a simplify outcome holds megabytes. kNotFound for unknown ids.
  [[nodiscard]] Result<std::shared_ptr<const JobOutcome>> wait(JobId id) const;

  /// Request cancellation. True when the job was live (queued jobs complete
  /// as kCancelled immediately; running jobs stop at the next checkpoint);
  /// false for unknown or already-done jobs.
  bool cancel(JobId id);

  /// Snapshots of every retained job, in submit order.
  [[nodiscard]] std::vector<JobInfo> list() const;

  [[nodiscard]] int workers() const noexcept { return queue_.workers(); }

 private:
  struct Job;
  /// One background thread multiplexing every timed event of the manager —
  /// deadline expirations and retry re-posts — so neither ties up a worker
  /// lane or spawns per-job threads. Created lazily on first use.
  class Monitor;

  [[nodiscard]] std::shared_ptr<Job> find(JobId id) const;
  void register_job(const std::shared_ptr<Job>& job);
  void run(const std::shared_ptr<Job>& job);
  /// Tail of run(): rewrite deadline cancellations, decide whether the
  /// outcome is a retryable transient failure, and either park the job for
  /// a backoff re-post or finish it.
  void maybe_retry_or_finish(const std::shared_ptr<Job>& job, JobOutcome outcome);
  void expire_deadline(const std::shared_ptr<Job>& job);
  Monitor& monitor();
  static void finish(const std::shared_ptr<Job>& job, JobOutcome outcome);
  static JobInfo snapshot(const Job& job);

  const Service& service_;
  const std::size_t max_retained_jobs_;

  mutable std::mutex mutex_;
  JobId next_ = 0;
  std::map<JobId, std::shared_ptr<Job>> jobs_;  // key order == submit order
  std::unique_ptr<Monitor> monitor_;  // shut down explicitly in ~JobManager

  // Declared last: destroyed first, so the worker join in ~WorkQueue happens
  // while the job table is still alive.
  support::WorkQueue queue_;
};

}  // namespace symref::api
