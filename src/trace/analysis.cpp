#include "trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "util/table.hpp"

namespace hdls::trace {

namespace {

/// Pairs ChunkExecBegin/ChunkExecEnd per worker. Executors emit them
/// strictly nested and in order, so the last unmatched Begin matches the
/// next End of the same worker.
struct ExecPairing {
    double begin_time = 0.0;
    bool open = false;
};

}  // namespace

TraceAnalysis analyze(const Trace& trace) {
    TraceAnalysis out;
    std::map<int, std::size_t> index_of;  // worker id -> index in out.workers
    // Exec pairing is keyed by (worker, job): in a merged multi-job trace
    // the same worker-slot lane carries several jobs' Begin/End streams,
    // which interleave in time but stay strictly nested *within* a job.
    std::map<std::pair<int, int>, ExecPairing> pending;
    std::vector<double> lock_waits;

    std::map<int, JobBreakdown> jobs;
    std::map<int, std::set<int>> job_workers;
    const auto job_slot = [&](const Event& e) -> JobBreakdown* {
        if (e.job < 0) {
            return nullptr;
        }
        const auto [it, inserted] = jobs.try_emplace(e.job);
        JobBreakdown& jb = it->second;
        if (inserted) {
            jb.job = e.job;
            jb.first_event = e.t0;
        }
        jb.first_event = std::min(jb.first_event, e.t0);
        jb.last_event = std::max(jb.last_event, e.t1);
        job_workers[e.job].insert(e.worker);
        return &jb;
    };

    std::map<int, LevelOverhead> levels;
    const auto level_slot = [&](const Event& e) -> LevelOverhead& {
        LevelOverhead& lo = levels[e.level];
        lo.level = e.level;
        return lo;
    };

    const auto slot = [&](const Event& e) -> WorkerBreakdown& {
        const auto [it, inserted] = index_of.try_emplace(e.worker, out.workers.size());
        if (inserted) {
            WorkerBreakdown wb;
            wb.worker = e.worker;
            wb.node = e.node;
            out.workers.push_back(wb);
        }
        return out.workers[it->second];
    };

    for (const Event& e : trace.events) {
        WorkerBreakdown& w = slot(e);
        ExecPairing& pair = pending[{e.worker, e.job}];
        JobBreakdown* const jb = job_slot(e);
        w.finish = std::max(w.finish, e.t1);
        switch (e.kind) {
            case EventKind::GlobalAcquire:
            case EventKind::Steal: {
                w.sched_overhead += e.duration();
                if (jb != nullptr) {
                    jb->sched_overhead += e.duration();
                }
                LevelOverhead& lo = level_slot(e);
                lo.acquire_seconds += e.duration();
                if (e.b > 0) {
                    ++w.global_chunks;
                    ++lo.acquires;
                    if (e.kind == EventKind::Steal) {
                        ++lo.steals;
                    }
                }
                break;
            }
            case EventKind::LocalPop: {
                w.sched_overhead += e.duration();
                w.lock_wait += e.wait;
                if (jb != nullptr) {
                    jb->sched_overhead += e.duration();
                    jb->lock_wait += e.wait;
                }
                lock_waits.push_back(e.wait);
                LevelOverhead& lo = level_slot(e);
                lo.pop_seconds += e.duration();
                lo.lock_wait_seconds += e.wait;
                if (e.a >= 0) {  // empty probes record a == b == -1
                    ++lo.pops;
                }
                break;
            }
            case EventKind::ChunkExecBegin:
                pair.begin_time = e.t0;
                pair.open = true;
                break;
            case EventKind::ChunkExecEnd:
                if (pair.open) {
                    w.compute += e.t1 - pair.begin_time;
                    if (jb != nullptr) {
                        jb->compute += e.t1 - pair.begin_time;
                    }
                    pair.open = false;
                } // an unmatched End (Begin dropped on overflow) adds nothing
                ++w.chunks;
                w.iterations += e.b - e.a;
                if (jb != nullptr) {
                    ++jb->chunks;
                    jb->iterations += e.b - e.a;
                }
                break;
            case EventKind::BarrierWait:
                w.barrier_wait += e.duration();
                if (jb != nullptr) {
                    jb->barrier_wait += e.duration();
                }
                break;
            case EventKind::Reclaim:
                out.reclaimed.emplace_back(e.a, e.b);
                out.reclaimed_iterations += e.b;
                break;
            case EventKind::RefillBegin:
            case EventKind::RefillEnd:
            case EventKind::Terminate:
            case EventKind::FeedbackReport:
                break;  // markers: no time attributed
        }
    }

    std::sort(out.workers.begin(), out.workers.end(),
              [](const WorkerBreakdown& x, const WorkerBreakdown& y) {
                  return x.worker < y.worker;
              });

    util::OnlineStats finish;
    for (const WorkerBreakdown& w : out.workers) {
        finish.add(w.finish);
        out.total_compute += w.compute;
        out.total_sched_overhead += w.sched_overhead;
        out.total_lock_wait += w.lock_wait;
        out.total_barrier_wait += w.barrier_wait;
    }
    out.max_finish = finish.max();
    out.mean_finish = finish.mean();
    out.makespan = finish.max();
    out.finish_cov = finish.cov();
    if (out.mean_finish > 0.0) {
        out.max_over_mean = out.max_finish / out.mean_finish;
        out.percent_imbalance = (out.max_over_mean - 1.0) * 100.0;
    }
    out.lock_wait_stats = util::summarize(lock_waits);
    out.levels.reserve(levels.size());
    for (const auto& [level, lo] : levels) {
        out.levels.push_back(lo);  // std::map iterates in level order
    }
    out.jobs.reserve(jobs.size());
    for (auto& [id, jb] : jobs) {  // std::map iterates in job-id order
        jb.workers = static_cast<int>(job_workers[id].size());
        for (const auto& [jid, name] : trace.meta.jobs) {
            if (jid == id) {
                jb.name = name;
                break;
            }
        }
        out.jobs.push_back(std::move(jb));
    }
    return out;
}

double TraceAnalysis::overhead_fraction() const noexcept {
    const double accounted = total_compute + total_sched_overhead + total_barrier_wait;
    return accounted > 0.0 ? total_sched_overhead / accounted : 0.0;
}

void TraceAnalysis::print(std::ostream& os) const {
    util::TextTable table({"worker", "node", "compute (ms)", "overhead (ms)", "lock wait (ms)",
                           "barrier wait (ms)", "finish (ms)", "chunks", "iterations"});
    for (const WorkerBreakdown& w : workers) {
        table.add_row({std::to_string(w.worker), std::to_string(w.node),
                       util::format_double(w.compute * 1e3, 3),
                       util::format_double(w.sched_overhead * 1e3, 3),
                       util::format_double(w.lock_wait * 1e3, 3),
                       util::format_double(w.barrier_wait * 1e3, 3),
                       util::format_double(w.finish * 1e3, 3), std::to_string(w.chunks),
                       std::to_string(w.iterations)});
    }
    table.print(os);
    if (!levels.empty()) {
        util::TextTable per_level({"level", "acquire (ms)", "acquires", "steals",
                                   "mean acquire", "pop (ms)", "pops", "lock wait (ms)"});
        for (const LevelOverhead& lo : levels) {
            per_level.add_row({std::to_string(lo.level),
                               util::format_double(lo.acquire_seconds * 1e3, 3),
                               std::to_string(lo.acquires), std::to_string(lo.steals),
                               util::format_seconds(lo.mean_acquire_seconds()),
                               util::format_double(lo.pop_seconds * 1e3, 3),
                               std::to_string(lo.pops),
                               util::format_double(lo.lock_wait_seconds * 1e3, 3)});
        }
        os << "per-level scheduling overhead (level 0 = root):\n";
        per_level.print(os);
    }
    if (!jobs.empty()) {
        util::TextTable per_job({"job", "name", "workers", "span (ms)", "compute (ms)",
                                 "overhead (ms)", "barrier wait (ms)", "chunks",
                                 "iterations"});
        for (const JobBreakdown& j : jobs) {
            per_job.add_row({std::to_string(j.job), j.name.empty() ? "-" : j.name,
                             std::to_string(j.workers),
                             util::format_double(j.span() * 1e3, 3),
                             util::format_double(j.compute * 1e3, 3),
                             util::format_double(j.sched_overhead * 1e3, 3),
                             util::format_double(j.barrier_wait * 1e3, 3),
                             std::to_string(j.chunks), std::to_string(j.iterations)});
        }
        os << "per-job breakdown (multi-tenant trace):\n";
        per_job.print(os);
    }
    if (!reclaimed.empty()) {
        os << "reclaimed: " << reclaimed.size() << " chunk(s), " << reclaimed_iterations
           << " iteration(s) re-executed after owner failure:";
        for (const auto& [start, size] : reclaimed) {
            os << " [" << start << "," << start + size << ")";
        }
        os << "\n";
    }
    os << "makespan: " << util::format_seconds(makespan)
       << "  imbalance: " << util::format_double(percent_imbalance, 2) << "%"
       << "  finish CoV: " << util::format_double(finish_cov, 4)
       << "  overhead share: " << util::format_double(overhead_fraction() * 100.0, 2) << "%\n"
       << "lock wait: mean " << util::format_seconds(lock_wait_stats.mean) << "  p99 "
       << util::format_seconds(lock_wait_stats.p99) << "  max "
       << util::format_seconds(lock_wait_stats.max) << "  (" << lock_wait_stats.count
       << " epochs)\n";
}

}  // namespace hdls::trace
