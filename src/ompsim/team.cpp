/// \file team.cpp
/// ThreadTeam implementation: region dispatch, centralized barrier and the
/// worksharing schedules.

#include "ompsim/team.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "dls/chunk_formulas.hpp"
#include "metrics/metrics.hpp"

namespace hdls::ompsim {

thread_local int ThreadTeam::current_thread_id_ = -1;

ThreadTeam::ThreadTeam(int num_threads) : ThreadTeam(num_threads, Placement{}) {}

ThreadTeam::ThreadTeam(int num_threads, const Placement& placement) {
    if (num_threads < 1) {
        throw std::invalid_argument("ThreadTeam: need at least one thread");
    }
    pin_policy_ = placement.policy;
    if (pin_policy_ == minimpi::PinPolicy::None) {
        pin_cpus_.assign(static_cast<std::size_t>(num_threads), -1);
    } else {
        const minimpi::HostTopology host = placement.host.sockets().empty()
                                               ? minimpi::HostTopology::detect()
                                               : placement.host;
        pin_cpus_ = host.plan(pin_policy_, placement.first_worker, num_threads);
        // The caller is thread 0: save its affinity (restored on destroy,
        // so a pinned team does not leak placement into its creator) and
        // pin it like any other member.
        caller_affinity_ = minimpi::current_thread_affinity();
        minimpi::pin_current_thread(pin_cpus_[0]);
    }
    workshares_.reserve(kWorkshareSlots);
    for (std::size_t i = 0; i < kWorkshareSlots; ++i) {
        workshares_.push_back(std::make_unique<Workshare>());
    }
    ws_counts_.assign(static_cast<std::size_t>(num_threads), 0);
    workers_.reserve(static_cast<std::size_t>(num_threads - 1));
    for (int t = 1; t < num_threads; ++t) {
        workers_.emplace_back(
            [this, t](const std::stop_token& stop) { worker_main(t, stop); });
    }
}

ThreadTeam::~ThreadTeam() {
    {
        const std::lock_guard<std::mutex> lock(region_mutex_);
        for (auto& w : workers_) {
            w.request_stop();
        }
    }
    region_cv_.notify_all();
    // Join explicitly: `workers_` is declared before the condition
    // variables, so relying on std::jthread's auto-join would destroy the
    // cvs first and a worker still inside notify_all would touch a dead
    // object (caught by TSan).
    for (auto& w : workers_) {
        if (w.joinable()) {
            w.join();
        }
    }
    minimpi::set_current_thread_affinity(caller_affinity_);
}

void ThreadTeam::worker_main(int thread_id, const std::stop_token& stop) {
    minimpi::pin_current_thread(pin_cpus_[static_cast<std::size_t>(thread_id)]);
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(int)>* body = nullptr;
        {
            std::unique_lock<std::mutex> lock(region_mutex_);
            region_cv_.wait(lock, [&] {
                return stop.stop_requested() || region_generation_ > seen;
            });
            if (stop.stop_requested()) {
                return;
            }
            seen = region_generation_;
            body = region_body_;
        }
        current_thread_id_ = thread_id;
        (*body)(thread_id);
        current_thread_id_ = -1;
        {
            const std::lock_guard<std::mutex> lock(region_mutex_);
            region_done_.fetch_add(1, std::memory_order_acq_rel);
        }
        region_done_cv_.notify_all();
    }
}

void ThreadTeam::parallel(const std::function<void(int)>& body) {
    if (current_thread_id_ != -1 || in_region_) {
        throw std::logic_error("ThreadTeam: nested parallel regions are not supported");
    }
    {
        const std::lock_guard<std::mutex> lock(region_mutex_);
        in_region_ = true;
        region_body_ = &body;
        region_done_.store(0, std::memory_order_release);
        ++region_generation_;
    }
    region_cv_.notify_all();
    // The calling thread participates as thread 0 (the OpenMP master).
    current_thread_id_ = 0;
    body(0);
    current_thread_id_ = -1;
    {
        std::unique_lock<std::mutex> lock(region_mutex_);
        region_done_cv_.wait(lock, [&] {
            return region_done_.load(std::memory_order_acquire) ==
                   static_cast<int>(workers_.size());
        });
        region_body_ = nullptr;
        in_region_ = false;
    }
}

void ThreadTeam::barrier() {
    if (current_thread_id_ == -1) {
        throw std::logic_error("ThreadTeam: barrier() outside a parallel region");
    }
    const auto idle_t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    const std::uint64_t my_epoch = barrier_epoch_;
    if (++barrier_arrived_ == size()) {
        barrier_arrived_ = 0;
        ++barrier_epoch_;
        lock.unlock();
        barrier_cv_.notify_all();
        return;  // the releasing arrival waited for nobody
    }
    barrier_cv_.wait(lock, [&] { return barrier_epoch_ != my_epoch; });
    metrics::rt().team_idle_ns->inc(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - idle_t0)
            .count()));
}

ThreadTeam::Workshare& ThreadTeam::acquire_workshare(std::int64_t begin, std::int64_t end,
                                                     const ForOptions& opts) {
    const auto tid = static_cast<std::size_t>(current_thread_id_);
    const std::uint64_t my_gen = ++ws_counts_[tid];
    Workshare& ws = *workshares_[my_gen % kWorkshareSlots];
    const std::lock_guard<std::mutex> lock(ws.init_mutex);
    if (ws.generation == my_gen) {
        return ws;  // a teammate initialized it already
    }
    if (ws.generation > my_gen) {
        throw std::logic_error("ThreadTeam: worksharing slot collision (team out of sync)");
    }
    if (ws.generation != 0 && ws.done_threads.load(std::memory_order_acquire) < size()) {
        throw std::logic_error(
            "ThreadTeam: too many nowait worksharing constructs in flight (slot still in use)");
    }
    ws.generation = my_gen;
    ws.begin = begin;
    ws.end = end;
    ws.schedule = opts.schedule;
    ws.chunk = std::max<std::int64_t>(opts.chunk, opts.schedule == Schedule::Static ? 0 : 1);
    ws.next.store(begin, std::memory_order_release);
    ws.step.store(0, std::memory_order_release);
    ws.steps.reset();
    if (opts.schedule == Schedule::Tss || opts.schedule == Schedule::Fac2) {
        dls::LoopParams p;
        p.total_iterations = end - begin;
        p.workers = size();
        p.min_chunk = ws.chunk;
        ws.steps.emplace(
            opts.schedule == Schedule::Tss ? dls::Technique::TSS : dls::Technique::FAC2, p);
    }
    ws.done_threads.store(0, std::memory_order_release);
    return ws;
}

void ThreadTeam::dispatch(Workshare& ws, const ForOptions& opts, const ChunkBody& body,
                          int thread_id) {
    const std::int64_t n = ws.end - ws.begin;
    const auto team = static_cast<std::int64_t>(size());
    switch (ws.schedule) {
        case Schedule::Static: {
            if (ws.chunk > 0) {
                // schedule(static, k): round-robin k-chunks by thread id.
                for (std::int64_t s = ws.begin + thread_id * ws.chunk; s < ws.end;
                     s += team * ws.chunk) {
                    body(s, std::min(s + ws.chunk, ws.end), thread_id);
                }
            } else {
                // schedule(static): one contiguous block per thread.
                const std::int64_t base = n / team;
                const std::int64_t extra = n % team;
                const std::int64_t mine_begin =
                    ws.begin + thread_id * base + std::min<std::int64_t>(thread_id, extra);
                const std::int64_t mine_len = base + (thread_id < extra ? 1 : 0);
                if (mine_len > 0) {
                    body(mine_begin, mine_begin + mine_len, thread_id);
                }
            }
            break;
        }
        case Schedule::StaticChunk: {
            const std::int64_t k = std::max<std::int64_t>(ws.chunk, 1);
            for (std::int64_t s = ws.begin + thread_id * k; s < ws.end; s += team * k) {
                body(s, std::min(s + k, ws.end), thread_id);
            }
            break;
        }
        case Schedule::Dynamic: {
            const std::int64_t k = std::max<std::int64_t>(ws.chunk, 1);
            for (;;) {
                const std::int64_t cur = ws.next.fetch_add(k, std::memory_order_acq_rel);
                if (cur >= ws.end) {
                    break;
                }
                body(cur, std::min(cur + k, ws.end), thread_id);
            }
            break;
        }
        case Schedule::Guided: {
            // chunk = max(ceil(remaining / P), k) — the GSS rule, matching
            // the paper's Table 1 equivalence guided(1) == GSS.
            const std::int64_t k = std::max<std::int64_t>(ws.chunk, 1);
            for (;;) {
                std::int64_t cur = ws.next.load(std::memory_order_acquire);
                for (;;) {
                    const std::int64_t remaining = ws.end - cur;
                    if (remaining <= 0) {
                        cur = ws.end;
                        break;
                    }
                    std::int64_t size_c = std::max((remaining + team - 1) / team, k);
                    size_c = std::min(size_c, remaining);
                    if (ws.next.compare_exchange_weak(cur, cur + size_c,
                                                      std::memory_order_acq_rel)) {
                        body(cur, cur + size_c, thread_id);
                        cur = ws.next.load(std::memory_order_acquire);
                    }
                    // on CAS failure `cur` was reloaded; retry with new value
                }
                if (cur >= ws.end) {
                    break;
                }
            }
            break;
        }
        case Schedule::Tss:
        case Schedule::Fac2: {
            // Extension schedules via the step-indexed DLS formulas — the
            // same distributed chunk-calculation protocol the MPI side uses:
            // one fetch-add claims a step, the step table gives its range.
            for (;;) {
                const std::int64_t step = ws.step.fetch_add(1, std::memory_order_acq_rel);
                if (step >= ws.steps->steps()) {
                    break;
                }
                const dls::StepRange range = ws.steps->at(step);
                body(ws.begin + range.start, ws.begin + range.start + range.size, thread_id);
            }
            break;
        }
    }
    ws.done_threads.fetch_add(1, std::memory_order_acq_rel);
    if (!opts.nowait) {
        barrier();
    }
}

void ThreadTeam::for_chunks(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                            const ChunkBody& body) {
    if (current_thread_id_ == -1) {
        throw std::logic_error("ThreadTeam: for_chunks() outside a parallel region");
    }
    if (end < begin) {
        throw std::invalid_argument("ThreadTeam: end must be >= begin");
    }
    Workshare& ws = acquire_workshare(begin, end, opts);
    // Count every dispatched sub-chunk; the two-pointer capture stays in
    // std::function's small-buffer storage, so no allocation per call.
    metrics::Counter* const team_chunks = metrics::rt().team_chunks;
    const ChunkBody counted = [team_chunks, &body](std::int64_t b, std::int64_t e,
                                                   int thread_id) {
        team_chunks->inc();
        body(b, e, thread_id);
    };
    dispatch(ws, opts, counted, current_thread_id_);
}

void ThreadTeam::for_each(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                          const std::function<void(std::int64_t)>& body) {
    for_chunks(begin, end, opts, [&](std::int64_t b, std::int64_t e, int /*tid*/) {
        for (std::int64_t i = b; i < e; ++i) {
            body(i);
        }
    });
}

void ThreadTeam::parallel_for(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                              const ChunkBody& body) {
    parallel([&](int /*tid*/) { for_chunks(begin, end, opts, body); });
}

int ThreadTeam::pinned_cpu(int thread_id) const noexcept {
    if (thread_id < 0 || thread_id >= size()) {
        return -1;
    }
    return pin_cpus_[static_cast<std::size_t>(thread_id)];
}

std::vector<double> ThreadTeam::measure_per_thread(
    const std::function<double(int)>& probe) {
    std::vector<double> out(static_cast<std::size_t>(size()), 0.0);
    // Distinct indices per thread: no synchronization needed beyond the
    // region's implicit join.
    parallel([&](int tid) { out[static_cast<std::size_t>(tid)] = probe(tid); });
    return out;
}

}  // namespace hdls::ompsim
