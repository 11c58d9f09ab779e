#pragma once
/// \file job_service.hpp
/// The persistent multi-tenant loop service: a submit()/wait() front end
/// over the hierarchical executor, multiplexing a *stream* of concurrent
/// loop jobs across one shared cluster shape.
///
/// Execution model. Each admitted job gets its own full scheduling
/// hierarchy — a private WorkSource chain built by run_hierarchical with
/// the job's (possibly overridden) HierConfig — so per-job replay parity
/// holds by construction: a job's chunk multiset under multiplexing is
/// identical to its solo run, because the chain never changes, only the
/// *pace* at which chunks execute. Pacing is the SlotGovernor's job: the
/// service's worker slots (shape.total_workers()) are apportioned across
/// the running jobs by dls::shard_partition with weight = priority ×
/// remaining iterations, re-apportioned at every chunk completion, and
/// each rank passes the per-job ChunkGate between acquiring a chunk and
/// executing it.
///
/// Admission control. At most `max_active` jobs run concurrently; beyond
/// that, jobs wait in a bounded pending queue of depth `queue_depth`, and
/// a submit() that finds the queue full throws
/// minimpi::Error{ErrorCode::Resource} — backpressure the caller can act
/// on. drain() waits for everything; shutdown(cancel=true) additionally
/// cancels queued jobs and stops handing new chunks to running ones
/// (in-flight chunks always complete).
///
/// Observability. Every job is timed (queue wait, run time, latency) into
/// the hdls_job_* metrics families plus an optional per-job-name labeled
/// latency histogram; with Config::trace (or a per-job config override)
/// each job records a private, job-stamped trace session whose result
/// rides on its JobResult — merge them with trace::merge_job_traces for
/// one multi-tenant timeline.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/slot_governor.hpp"
#include "core/types.hpp"

namespace hdls::core {

/// One unit of the job stream: a loop plus how to schedule and weigh it.
struct LoopJob {
    std::string name;             ///< label for metrics/traces ("" = unnamed)
    std::int64_t iterations = 0;  ///< loop is [0, iterations)
    ChunkBody body;               ///< thread-safe across disjoint ranges
    double priority = 1.0;        ///< fair-share weight multiplier (> 0)
    /// Per-job scheduling override; the service's base config otherwise.
    std::optional<HierConfig> config;
};

/// What wait() returns.
struct JobResult {
    std::uint64_t id = 0;
    std::string name;
    /// True when the job was cancelled (shutdown(cancel) before or during
    /// its run); `report` then covers only the iterations that executed.
    bool cancelled = false;
    ExecutionReport report;
    double queue_seconds = 0.0;    ///< submit -> run start
    double run_seconds = 0.0;      ///< run start -> completion
    double latency_seconds = 0.0;  ///< submit -> completion
    /// Fairness accounting from the SlotGovernor: slot-seconds the job
    /// actually held vs. slot-seconds its entitlement integrated to.
    double slot_seconds = 0.0;
    double entitled_slot_seconds = 0.0;
};

/// The persistent service. Thread-safe: submit/wait/drain may be called
/// from any thread, concurrently.
class JobService {
public:
    struct Config {
        ClusterShape shape{};                    ///< the shared cluster
        Approach approach = Approach::MpiMpi;    ///< execution model for all jobs
        HierConfig base{};                       ///< default per-job scheduling config
        /// Maximum jobs running concurrently (>= 1). Unset defers to
        /// HDLS_MAX_JOBS (default 4).
        std::optional<int> max_active;
        /// Bounded pending-queue depth (>= 0); submit() past it throws
        /// minimpi::Error{ErrorCode::Resource}. 0 = no queue (reject unless
        /// a run slot is free). Unset defers to HDLS_JOB_QUEUE_DEPTH
        /// (default 16).
        std::optional<int> queue_depth;
        /// Trace every job into a private job-stamped session (per-job
        /// HierConfig overrides can also set trace individually).
        bool trace_jobs = false;
        /// Register a per-job-name labeled latency histogram
        /// (hdls_job_latency_ns{job="<name>"}) for named jobs.
        bool per_job_metrics = true;
    };

    explicit JobService(Config cfg);
    /// Drains in-flight work (shutdown(cancel=false)) before destruction.
    ~JobService();

    JobService(const JobService&) = delete;
    JobService& operator=(const JobService&) = delete;

    /// Admits a job into the stream and returns its id. Throws
    /// minimpi::Error{ErrorCode::Resource} when the pending queue is
    /// full, std::invalid_argument for malformed jobs or configs, and
    /// std::runtime_error after shutdown.
    std::uint64_t submit(LoopJob job);

    /// Blocks until the job completes (or is cancelled) and returns its
    /// result. Each id can be waited once; a second wait throws.
    [[nodiscard]] JobResult wait(std::uint64_t id);

    /// Waits for every submitted job and returns the results not yet
    /// collected through wait(), in completion order.
    std::vector<JobResult> drain();

    /// Stops admission (subsequent submits throw). cancel=false completes
    /// everything already admitted; cancel=true cancels queued jobs and
    /// stops handing new chunks to running jobs (in-flight chunks finish).
    /// Idempotent.
    void shutdown(bool cancel = false);

    [[nodiscard]] int active_jobs() const;
    [[nodiscard]] int pending_jobs() const;
    [[nodiscard]] const SlotGovernor& governor() const noexcept { return governor_; }

private:
    struct JobState;

    /// Starts as many pending jobs as run slots allow (locked).
    void launch_ready_locked();
    /// The per-job runner thread body.
    void run_job(std::shared_ptr<JobState> state);
    void finalize(JobState& state, JobResult result);

    Config cfg_;
    SlotGovernor governor_;

    mutable std::mutex mutex_;
    std::condition_variable done_cv_;
    bool shutdown_ = false;
    bool cancel_requested_ = false;
    std::uint64_t next_id_ = 0;
    std::uint64_t completion_counter_ = 0;
    int running_ = 0;
    std::vector<std::shared_ptr<JobState>> pending_;
    std::map<std::uint64_t, std::shared_ptr<JobState>> jobs_;
};

}  // namespace hdls::core
