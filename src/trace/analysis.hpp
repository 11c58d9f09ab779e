#pragma once
/// \file analysis.hpp
/// Derives the paper's diagnostics from a merged trace: the per-worker
/// scheduling-overhead vs. compute decomposition behind Figures 2/3, the
/// load-imbalance metrics of the DLS literature, and the lock-contention
/// distribution (time between lock request and grant) that explains the
/// intra-node SS behaviour under MPI+MPI.

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace hdls::trace {

/// Per-worker time decomposition derived purely from events.
struct WorkerBreakdown {
    int worker = 0;
    int node = 0;
    double compute = 0.0;         ///< inside the loop body (ChunkExec pairs)
    double sched_overhead = 0.0;  ///< GlobalAcquire + LocalPop epochs
    double lock_wait = 0.0;       ///< part of sched_overhead: lock request -> grant
    double barrier_wait = 0.0;    ///< BarrierWait spans (idle / sync)
    double finish = 0.0;          ///< end of the worker's last event
    std::int64_t chunks = 0;      ///< executed sub-chunks (ChunkExecEnd count)
    std::int64_t iterations = 0;  ///< iterations covered by executed sub-chunks
    std::int64_t global_chunks = 0;  ///< successful GlobalAcquire count
};

/// Per-hierarchy-level scheduling-overhead decomposition: where the
/// acquire time goes in a deep topology tree (level 0 = the root). An
/// acquire/steal event contributes to the level it pulled *from*; a pop or
/// refill contributes to the level of the queue it touched.
struct LevelOverhead {
    int level = 0;
    double acquire_seconds = 0.0;   ///< GlobalAcquire + Steal epochs at this level
    std::int64_t acquires = 0;      ///< successful acquisitions (size > 0)
    std::int64_t steals = 0;        ///< the subset carved from a peer's share
    double pop_seconds = 0.0;       ///< LocalPop epochs on this level's queue
    std::int64_t pops = 0;          ///< successful pops (non-empty)
    double lock_wait_seconds = 0.0; ///< lock-grant latency inside those pops

    /// Mean duration of one successful acquisition at this level.
    [[nodiscard]] double mean_acquire_seconds() const noexcept {
        return acquires > 0 ? acquire_seconds / static_cast<double>(acquires) : 0.0;
    }
};

/// Per-job time decomposition of a multi-job (JobService) trace: the same
/// compute/overhead/wait split as WorkerBreakdown, aggregated over every
/// event carrying one job id, plus the job's observed span — so one job's
/// imbalance or queueing is never blamed on its neighbours.
struct JobBreakdown {
    int job = -1;
    std::string name;             ///< from meta.jobs when available
    double first_event = 0.0;     ///< earliest event start (trace clock)
    double last_event = 0.0;      ///< latest event end
    double compute = 0.0;
    double sched_overhead = 0.0;
    double lock_wait = 0.0;
    double barrier_wait = 0.0;
    std::int64_t chunks = 0;
    std::int64_t iterations = 0;
    int workers = 0;              ///< distinct worker slots that served the job

    /// The job's wall-clock footprint on the shared timeline.
    [[nodiscard]] double span() const noexcept { return last_event - first_event; }
};

/// Whole-run diagnostics.
struct TraceAnalysis {
    std::vector<WorkerBreakdown> workers;

    /// Per-job breakdown, sorted by job id. Empty for single-tenant
    /// traces (no event carries a job tag).
    std::vector<JobBreakdown> jobs;

    /// Per-level overhead breakdown, sorted by level (empty for traces
    /// with no scheduling events).
    std::vector<LevelOverhead> levels;

    double makespan = 0.0;      ///< max worker finish (the paper's metric)
    double mean_finish = 0.0;
    double max_finish = 0.0;
    /// Percent load imbalance lambda = (max/mean - 1) * 100 of worker
    /// finish times (0 = perfectly balanced).
    double percent_imbalance = 0.0;
    /// Coefficient of variation of worker finish times.
    double finish_cov = 0.0;
    /// max/mean finish ratio (1 = perfectly balanced).
    double max_over_mean = 0.0;

    double total_compute = 0.0;
    double total_sched_overhead = 0.0;
    double total_lock_wait = 0.0;
    double total_barrier_wait = 0.0;

    /// Chunks reclaimed from dead owners and re-executed by survivors
    /// (Reclaim events), as [start, start+size) ranges in recording order.
    /// Empty for runs without failures — the fault-tolerance accounting of
    /// docs/fault-tolerance.md.
    std::vector<std::pair<std::int64_t, std::int64_t>> reclaimed;
    std::int64_t reclaimed_iterations = 0;

    /// Distribution of per-epoch lock-grant latencies (every LocalPop's
    /// request->grant wait), the contended-handoff cost of ref [38].
    util::Summary lock_wait_stats;

    /// Scheduling overhead as a fraction of total accounted worker time.
    [[nodiscard]] double overhead_fraction() const noexcept;

    /// Compact human-readable rendering (one row per worker + totals).
    void print(std::ostream& os) const;
};

/// Runs the full analysis over a merged trace.
[[nodiscard]] TraceAnalysis analyze(const Trace& trace);

}  // namespace hdls::trace
