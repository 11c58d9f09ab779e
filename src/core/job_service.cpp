#include "core/job_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/env_config.hpp"
#include "core/runner.hpp"
#include "metrics/metrics.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::uint64_t to_ns(double seconds) {
    return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}
}  // namespace

/// Everything the service tracks about one job, protected by the service
/// mutex (except `thread`, which only the collector joins, and the fields
/// the runner thread fills before raising `done`).
struct JobService::JobState {
    std::uint64_t id = 0;
    LoopJob job;
    HierConfig config;  ///< resolved effective config (base + override)
    Clock::time_point submit_time{};
    Clock::time_point start_time{};
    std::uint64_t governor_id = 0;
    bool governor_registered = false;
    bool started = false;
    bool done = false;
    bool collected = false;
    std::uint64_t completion_seq = 0;
    JobResult result;
    std::exception_ptr error;
    std::thread thread;
};

JobService::JobService(Config cfg) : cfg_(std::move(cfg)), governor_([&] {
    if (cfg_.shape.nodes < 1 || cfg_.shape.workers_per_node < 1) {
        throw std::invalid_argument("JobService: cluster shape must be positive");
    }
    return cfg_.shape.total_workers();
}()) {
    const EnvKnobs env = read_env(KnobScope::Service);
    cfg_.max_active = cfg_.max_active.value_or(env.max_jobs);
    cfg_.queue_depth = cfg_.queue_depth.value_or(env.job_queue_depth);
    if (*cfg_.max_active < 1) {
        throw std::invalid_argument("JobService: max_active must be >= 1");
    }
    if (*cfg_.queue_depth < 0) {
        throw std::invalid_argument("JobService: queue_depth must be >= 0");
    }
    // The base config must be runnable as-is: a malformed default should
    // fail service construction, not the first submit that relies on it.
    validate_combination(cfg_.shape, cfg_.approach, cfg_.base);
}

JobService::~JobService() {
    try {
        shutdown(/*cancel=*/false);
    } catch (...) {
        // Destructor must not throw; shutdown errors die here.
    }
}

std::uint64_t JobService::submit(LoopJob job) {
    if (job.iterations < 0) {
        throw std::invalid_argument("JobService::submit: iterations must be >= 0");
    }
    if (!job.body) {
        throw std::invalid_argument("JobService::submit: body must not be empty");
    }
    if (!(job.priority > 0.0)) {
        throw std::invalid_argument("JobService::submit: priority must be > 0");
    }
    HierConfig effective = job.config ? *job.config : cfg_.base;
    if (cfg_.trace_jobs) {
        effective.trace = true;
    }
    // Per-job overrides are validated at the admission boundary so a bad
    // config is the submitter's synchronous error, not a later surprise
    // inside an anonymous runner thread.
    validate_combination(cfg_.shape, cfg_.approach, effective);

    const metrics::RuntimeMetrics& m = metrics::rt();
    auto state = std::make_shared<JobState>();
    state->job = std::move(job);
    state->config = std::move(effective);
    state->submit_time = Clock::now();

    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
        throw std::runtime_error("JobService::submit: service is shut down");
    }
    // Admission control: run now, queue, or push back on the caller.
    if (running_ >= *cfg_.max_active &&
        static_cast<int>(pending_.size()) >= *cfg_.queue_depth) {
        m.jobs_rejected->inc();
        throw minimpi::Error(minimpi::ErrorCode::Resource,
                             "JobService::submit: pending-job queue is full (" +
                                 std::to_string(pending_.size()) + "/" +
                                 std::to_string(*cfg_.queue_depth) +
                                 " queued, " + std::to_string(running_) +
                                 " running); retry later or raise HDLS_JOB_QUEUE_DEPTH");
    }
    state->id = next_id_++;
    jobs_.emplace(state->id, state);
    pending_.push_back(state);
    m.jobs_submitted->inc();
    m.jobs_pending->add(1);
    launch_ready_locked();
    return state->id;
}

void JobService::launch_ready_locked() {
    const metrics::RuntimeMetrics& m = metrics::rt();
    while (running_ < *cfg_.max_active && !pending_.empty()) {
        std::shared_ptr<JobState> state = pending_.front();
        pending_.erase(pending_.begin());
        m.jobs_pending->add(-1);
        m.jobs_active->add(1);
        state->started = true;
        state->start_time = Clock::now();
        m.job_queue_wait_ns->observe(
            to_ns(seconds_between(state->submit_time, state->start_time)));
        ++running_;
        state->thread = std::thread([this, state] { run_job(state); });
    }
}

void JobService::run_job(std::shared_ptr<JobState> state) {
    const std::uint64_t gid =
        governor_.add_job(state->job.priority, state->job.iterations);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        state->governor_id = gid;
        state->governor_registered = true;
        if (cancel_requested_) {
            governor_.cancel_job(gid);
        }
    }

    RunOptions opts;
    opts.gate = &governor_.gate(gid);
    opts.job = static_cast<int>(state->id);

    JobResult result;
    result.id = state->id;
    result.name = state->job.name;
    try {
        result.report = run_hierarchical(cfg_.shape, cfg_.approach, state->config,
                                         state->job.iterations, state->job.body, opts);
    } catch (...) {
        state->error = std::current_exception();
    }

    const SlotGovernor::JobShare share = governor_.share(gid);
    governor_.remove_job(gid);
    const Clock::time_point finish = Clock::now();

    result.queue_seconds = seconds_between(state->submit_time, state->start_time);
    result.run_seconds = seconds_between(state->start_time, finish);
    result.latency_seconds = seconds_between(state->submit_time, finish);
    result.slot_seconds = share.occupancy_seconds;
    result.entitled_slot_seconds = share.entitled_seconds;
    result.cancelled = state->error == nullptr &&
                       result.report.executed_iterations() < state->job.iterations;

    const metrics::RuntimeMetrics& m = metrics::rt();
    m.jobs_active->add(-1);
    (result.cancelled ? m.jobs_cancelled : m.jobs_completed)->inc();
    m.job_latency_ns->observe(to_ns(result.latency_seconds));
    if (cfg_.per_job_metrics && !result.name.empty()) {
        metrics::registry()
            .histogram("hdls_job_latency_ns",
                       "Job latency (submit to completion) in nanoseconds",
                       {{"job", result.name}})
            .observe(to_ns(result.latency_seconds));
    }

    finalize(*state, std::move(result));
}

void JobService::finalize(JobState& state, JobResult result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    state.result = std::move(result);
    state.done = true;
    state.completion_seq = completion_counter_++;
    --running_;
    launch_ready_locked();
    done_cv_.notify_all();
}

JobResult JobService::wait(std::uint64_t id) {
    std::shared_ptr<JobState> state;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            throw std::invalid_argument("JobService::wait: unknown job id " +
                                        std::to_string(id));
        }
        state = it->second;
        done_cv_.wait(lock, [&] { return state->done; });
        if (state->collected) {
            throw std::logic_error("JobService::wait: job " + std::to_string(id) +
                                   " was already collected");
        }
        state->collected = true;
    }
    if (state->thread.joinable()) {
        state->thread.join();
    }
    if (state->error != nullptr) {
        std::rethrow_exception(state->error);
    }
    return std::move(state->result);
}

std::vector<JobResult> JobService::drain() {
    std::vector<std::shared_ptr<JobState>> collected;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] {
            return pending_.empty() &&
                   std::all_of(jobs_.begin(), jobs_.end(),
                               [](const auto& kv) { return kv.second->done; });
        });
        for (auto& [id, state] : jobs_) {
            if (!state->collected) {
                state->collected = true;
                collected.push_back(state);
            }
        }
    }
    std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
        return a->completion_seq < b->completion_seq;
    });
    std::vector<JobResult> results;
    results.reserve(collected.size());
    for (const auto& state : collected) {
        if (state->thread.joinable()) {
            state->thread.join();
        }
        if (state->error != nullptr) {
            std::rethrow_exception(state->error);
        }
        results.push_back(std::move(state->result));
    }
    return results;
}

void JobService::shutdown(bool cancel) {
    std::vector<std::shared_ptr<JobState>> to_join;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
        if (cancel && !cancel_requested_) {
            cancel_requested_ = true;
            const metrics::RuntimeMetrics& m = metrics::rt();
            // Queued jobs never start: mark them cancelled-complete with
            // pure queue latency and no report.
            for (const auto& state : pending_) {
                state->result.id = state->id;
                state->result.name = state->job.name;
                state->result.cancelled = true;
                state->result.queue_seconds =
                    seconds_between(state->submit_time, Clock::now());
                state->result.latency_seconds = state->result.queue_seconds;
                state->done = true;
                state->completion_seq = completion_counter_++;
                m.jobs_pending->add(-1);
                m.jobs_cancelled->inc();
            }
            pending_.clear();
            // Running jobs stop at their next chunk boundary.
            for (const auto& [id, state] : jobs_) {
                if (state->started && !state->done && state->governor_registered) {
                    governor_.cancel_job(state->governor_id);
                }
            }
            done_cv_.notify_all();
        }
        done_cv_.wait(lock, [&] {
            return pending_.empty() &&
                   std::all_of(jobs_.begin(), jobs_.end(),
                               [](const auto& kv) { return kv.second->done; });
        });
        for (const auto& [id, state] : jobs_) {
            to_join.push_back(state);
        }
    }
    for (const auto& state : to_join) {
        if (state->thread.joinable()) {
            state->thread.join();
        }
    }
}

int JobService::active_jobs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

int JobService::pending_jobs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(pending_.size());
}

}  // namespace hdls::core
