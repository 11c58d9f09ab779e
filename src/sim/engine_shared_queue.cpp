/// \file engine_shared_queue.cpp
/// Worker-level simulation engine (MPI+MPI and OpenMP-nowait models).
///
/// Discrete-event scheme: every worker is a process; the event queue holds
/// (ready-time, worker) pairs and always advances the globally earliest
/// worker, so shared-state mutations happen in virtual-time order. Each
/// event processes one *transaction*: a queue access, optionally followed
/// by a global refill and the execution of the obtained sub-chunk.
/// Serialization points (the node queue lock/counter, the global queue
/// target) are modelled as resources whose busy-until times chain
/// transactions in processing order.

#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "dls/chunk_formulas.hpp"
#include "sim/engine_trace.hpp"
#include "sim/engines.hpp"
#include "sim/inter_source.hpp"
#include "sim/resources.hpp"

namespace hdls::sim::detail {

namespace {

/// One queued parent chunk, sliced by the leaf technique's step table —
/// the same dls::StepTable the real NodeWorkQueue claims steps from.
struct ChunkState {
    std::int64_t start = 0;
    std::int64_t size = 0;
    dls::StepTable slices;
    std::int64_t step = 0;    ///< next unclaimed step
    double visible_at = 0.0;  ///< push completion; invisible to pops before

    [[nodiscard]] bool exhausted() const noexcept { return step >= slices.steps(); }
    /// Iterations already assigned (the claimed steps' prefix).
    [[nodiscard]] std::int64_t scheduled() const noexcept {
        return exhausted() ? size : slices.at(step).start;
    }
};

struct NodeState {
    explicit NodeState(const CostModel& costs)
        : lock(costs.lock_hold_s(), costs.lock_poll_s(), costs.lock_attempt_s()),
          counter(costs.omp_dequeue_s()) {}

    PollingLock lock;      // MPI_Win_lock model
    FcfsResource counter;  // atomic-counter model
    std::vector<ChunkState> chunks;
    std::size_t head = 0;            ///< first chunk that may hold work
    std::int64_t unallocated = 0;    ///< unassigned iterations in the queue
};

struct QueueAccess {
    double granted = 0.0;   ///< inspection time (queue state as of here)
    double released = 0.0;  ///< worker may proceed from here
    double wait = 0.0;      ///< contention wait
};

struct Event {
    double time;
    int worker;
    friend bool operator>(const Event& a, const Event& b) {
        return a.time != b.time ? a.time > b.time : a.worker > b.worker;
    }
};

}  // namespace

SimReport simulate_shared_queue(const ClusterSpec& cluster, const SimConfig& config,
                                const WorkloadTrace& workload, bool polling_lock,
                                bool any_rank_refills) {
    const CostModel& costs = cluster.costs;
    const int total_workers = cluster.total_workers();
    const std::int64_t n = workload.iterations();

    SimReport report;
    report.nodes = cluster.nodes;
    report.workers_per_node = cluster.workers_per_node;
    report.topology = cluster.effective_tree();
    report.total_iterations = n;
    report.workers.assign(static_cast<std::size_t>(total_workers), SimWorker{});
    for (int w = 0; w < total_workers; ++w) {
        report.workers[static_cast<std::size_t>(w)].node = w / cluster.workers_per_node;
        report.workers[static_cast<std::size_t>(w)].worker_in_node =
            w % cluster.workers_per_node;
    }
    EngineTrace engine_trace(cluster, config);
    const auto attach_trace = [&] {
        engine_trace.attach(report,
                            polling_lock ? ExecModel::MpiMpi : ExecModel::MpiOpenMpNowait,
                            cluster, config, n);
    };

    if (n == 0) {
        attach_trace();
        return report;
    }

    // The whole hierarchy above the leaf queues (root backend + any relay
    // levels of a deep tree), priced per level in one shared place.
    const SimPlan plan = resolve_sim_plan(cluster, config);
    const dls::Technique leaf_technique = plan.levels.back().technique;
    const int leaf_level = plan.depth() - 1;
    HierarchicalSource source(cluster, config, plan, n);

    std::vector<NodeState> nodes(static_cast<std::size_t>(cluster.nodes), NodeState(costs));

    // Retry period of a worker that must wait for work to appear without a
    // known wake-up time (nowait non-masters): the natural software poll.
    const double poll_quantum = std::max(costs.lock_poll_s(), 1e-6);

    // Fail-stop injection (SimConfig::failure): while armed, the kill fires
    // at the first event after `trigger_iters` iterations have been
    // assigned to workers. Iterations count as assigned at sub-chunk
    // allocation (pop_visible), the sim's chunk boundary.
    const SimFailure& fail = config.failure;
    bool failure_armed = fail.enabled();
    const auto trigger_iters =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                      fail.at_fraction * static_cast<double>(n)));
    std::int64_t assigned = 0;
    std::vector<char> node_dead(static_cast<std::size_t>(cluster.nodes), 0);

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
    for (int w = 0; w < total_workers; ++w) {
        events.push({0.0, w});
    }

    // Accesses the node queue and, if work is visible, allocates the next
    // sub-chunk via the intra technique's step-indexed formula.
    const auto access_queue = [&](NodeState& node, double t) -> QueueAccess {
        if (polling_lock) {
            const PollingLock::Grant g = node.lock.acquire(t);
            return {g.acquired, g.released, g.wait};
        }
        const double before = node.counter.busy_until();
        const double done = node.counter.acquire(t);
        return {done, done, std::max(0.0, before - t)};
    };

    const auto make_chunk = [&](std::int64_t start, std::int64_t size, double visible_at) {
        dls::LoopParams p;
        p.total_iterations = size;
        p.workers = cluster.workers_per_node;
        p.min_chunk = config.min_chunk;
        return ChunkState{start, size, dls::StepTable(leaf_technique, p), 0, visible_at};
    };

    const auto pop_visible = [&](NodeState& node, double at)
        -> std::optional<std::pair<std::int64_t, std::int64_t>> {
        while (node.head < node.chunks.size() && node.chunks[node.head].exhausted()) {
            ++node.head;  // retire fully-allocated chunks
        }
        for (std::size_t i = node.head; i < node.chunks.size(); ++i) {
            ChunkState& c = node.chunks[i];
            if (c.exhausted() || c.visible_at > at) {
                continue;
            }
            const dls::StepRange range = c.slices.at(c.step++);
            node.unallocated -= range.size;
            assigned += range.size;
            const std::int64_t begin = c.start + range.start;
            return std::pair{begin, begin + range.size};
        }
        return std::nullopt;
    };

    // Waiting spans are coalesced per worker: one BarrierWait event from
    // the first empty-handed wake-up to the wake-up that found work (or
    // terminated), mirroring the real executor's recording.
    std::vector<double> wait_from(static_cast<std::size_t>(total_workers), -1.0);
    // Asynchronous prefetching (SimConfig::prefetch): the compute time of
    // the sub-chunk a worker just executed is the window its next
    // upper-level acquisition can hide under. Adaptive roots are never
    // discounted — the real prefetcher does not cross a refill whose flush
    // must see the in-flight chunk's feedback.
    const bool prefetch = config.prefetch && !source.wants_feedback();
    std::vector<double> overlap_credit(static_cast<std::size_t>(total_workers), 0.0);
    // Per-worker "accumulated feedback not yet flushed" flag, mirroring
    // the real executor's flush-before-refill cadence.
    std::vector<char> feedback_pending(static_cast<std::size_t>(total_workers), 0);

    int finished = 0;
    while (finished < total_workers) {
        const Event ev = events.top();
        events.pop();
        SimWorker& w = report.workers[static_cast<std::size_t>(ev.worker)];
        NodeState& node = nodes[static_cast<std::size_t>(w.node)];
        const double t = ev.time;
        trace::WorkerTracer& tracer = engine_trace.tracer(ev.worker);
        const bool tracing = tracer.enabled();
        // Fire the injected failure: mark the node dead and re-queue the
        // unassigned remainders of its local queue on the survivors,
        // round-robin, visible once the virtual detection latency elapses
        // (a reclaimed remainder restarts as a fresh chunk, mirroring the
        // real claimer re-leasing a reclaimed chunk under its own lease).
        if (failure_armed && assigned >= trigger_iters) {
            failure_armed = false;
            node_dead[static_cast<std::size_t>(fail.node)] = 1;
            NodeState& dead = nodes[static_cast<std::size_t>(fail.node)];
            const double visible = t + std::max(0.0, fail.detect_delay_s);
            int target = fail.node;
            for (std::size_t i = dead.head; i < dead.chunks.size(); ++i) {
                ChunkState& c = dead.chunks[i];
                // Remainders not yet visible at the kill instant transfer
                // too: the push lands in shared memory, which outlives the
                // dead node's ranks (hence the max() on visibility below).
                const std::int64_t scheduled = c.scheduled();
                const std::int64_t rem = c.size - scheduled;
                if (rem <= 0) {
                    continue;
                }
                do {
                    target = (target + 1) % cluster.nodes;
                } while (target == fail.node);
                NodeState& dst = nodes[static_cast<std::size_t>(target)];
                dst.chunks.push_back(
                    make_chunk(c.start + scheduled, rem, std::max(visible, c.visible_at)));
                dst.unallocated += rem;
                report.reclaimed_iterations += rem;
                c.step = c.slices.steps();
            }
            dead.unallocated = 0;
        }
        // The overlap window earned by the previous transaction's compute;
        // consumed (and reset) by this transaction's refill, if any.
        double& credit_slot = overlap_credit[static_cast<std::size_t>(ev.worker)];
        const double my_credit = prefetch ? credit_slot : -1.0;
        credit_slot = 0.0;
        double& waiting_since = wait_from[static_cast<std::size_t>(ev.worker)];
        const bool record_probe = tracing && waiting_since < 0.0;
        const auto close_wait = [&](double end) {
            if (tracing && waiting_since >= 0.0) {
                tracer.record(trace::EventKind::BarrierWait, waiting_since, end);
                waiting_since = -1.0;
            }
        };

        // A worker of the killed node fail-stops at its next event — the
        // chunk boundary after its in-flight sub-chunk, matching the real
        // chaos seam's boundary placement.
        if (node_dead[static_cast<std::size_t>(w.node)] != 0) {
            close_wait(t);
            if (tracing) {
                tracer.instant(trace::EventKind::Terminate, t);
            }
            w.finish = t;
            ++finished;
            continue;
        }

        // ---- stage 2: try to pop a sub-chunk from the node queue --------
        const QueueAccess acc = access_queue(node, t);
        w.lock_wait += acc.wait;
        w.overhead += acc.released - t;
        if (const auto sub = pop_visible(node, acc.granted)) {
            close_wait(t);
            const double compute =
                workload.range_cost(sub->first, sub->second) / cluster.speed(w.node);
            w.busy += compute;
            w.overhead += costs.chunk_overhead_s();
            w.iterations += sub->second - sub->first;
            ++w.sub_chunks;
            if (tracing) {
                tracer.record(trace::EventKind::LocalPop, t, acc.released, sub->first,
                              sub->second, acc.wait, leaf_level);
                const double exec0 = acc.released + costs.chunk_overhead_s();
                tracer.instant(trace::EventKind::ChunkExecBegin, exec0, sub->first,
                               sub->second);
                tracer.instant(trace::EventKind::ChunkExecEnd, exec0 + compute, sub->first,
                               sub->second);
            }
            if (source.wants_feedback()) {
                // Local accumulation in the real executor: free here; the
                // flush is priced at the next refill.
                source.report(w.node, sub->second - sub->first, compute,
                              acc.released - t + costs.chunk_overhead_s());
                feedback_pending[static_cast<std::size_t>(ev.worker)] = 1;
            }
            credit_slot = compute;
            events.push({acc.released + costs.chunk_overhead_s() + compute, ev.worker});
            continue;
        }
        if (record_probe) {
            tracer.record(trace::EventKind::LocalPop, t, acc.released, -1, -1, acc.wait,
                          leaf_level);
        }

        double now = acc.released;

        // ---- stage 1: queue drained; refill from the level above --------
        const bool may_refill = any_rank_refills || w.worker_in_node == 0;
        if (may_refill && !source.exhausted(w.node)) {
            if (feedback_pending[static_cast<std::size_t>(ev.worker)] != 0) {
                // Pre-acquire feedback flush: three accumulator RMA updates
                // (the AWF weight-refresh reads ride the priced global
                // acquisition below — a deliberate simplification).
                const double flush = feedback_flush_s(costs);
                w.overhead += flush;
                now += flush;
                feedback_pending[static_cast<std::size_t>(ev.worker)] = 0;
            }
            if (record_probe) {
                tracer.instant(trace::EventKind::RefillBegin, now, 0, 0, leaf_level);
            }
            double done = now;
            double retry_at = 0.0;
            PrefetchCharge pf;
            const auto take = source.acquire(w.node, now, &done, &retry_at, my_credit, &pf);
            w.overhead += done - now;
            if (take && my_credit >= 0.0 && tracing) {
                tracer.record(trace::EventKind::Prefetch, done, done, pf.hit ? 1 : 0,
                              take->start, pf.hidden, take->level);
            }
            if (!take && std::isfinite(retry_at)) {
                // Work is in flight somewhere up the branch (pushed but not
                // yet visible at our inspection time): wake when it lands.
                if (record_probe) {
                    tracer.instant(trace::EventKind::RefillEnd, done, 0, 0, leaf_level);
                }
                const double next = std::max(done, retry_at);
                w.idle += next - done;
                if (tracing && waiting_since < 0.0) {
                    waiting_since = done;
                }
                events.push({next, ev.worker});
                continue;
            }
            if (!take) {
                if (record_probe) {
                    tracer.record(trace::EventKind::GlobalAcquire, now, done, 0, 0);
                    tracer.instant(trace::EventKind::RefillEnd, done, 0, 0, leaf_level);
                }
                now = done;
            } else {
                const std::int64_t start = take->start;
                const std::int64_t size = take->size;
                ++w.global_refills;
                close_wait(now);
                if (tracing) {
                    // Under prefetch pricing `done` is the discounted
                    // completion; the recorded epoch keeps the physical
                    // flight time (mirroring the real executor, whose
                    // prefetched acquire epoch is raw but off the critical
                    // path) — the hidden share rides the Prefetch event.
                    const double epoch_end = my_credit >= 0.0 ? now + pf.raw : done;
                    tracer.record(take->stolen ? trace::EventKind::Steal
                                               : trace::EventKind::GlobalAcquire,
                                  now, epoch_end, start, size, 0.0, take->level);
                }
                now = done;
                // Push + pop own first sub-chunk in one queue access.
                const QueueAccess push = access_queue(node, now);
                w.lock_wait += push.wait;
                w.overhead += push.released - now;
                node.chunks.push_back(make_chunk(start, size, push.released));
                node.unallocated += size;
                const auto sub = pop_visible(node, push.released);
                // The fresh chunk is visible to us inside the epoch.
                const double compute =
                    sub ? workload.range_cost(sub->first, sub->second) /
                              cluster.speed(w.node)
                        : 0.0;
                if (sub) {
                    w.busy += compute;
                    w.overhead += costs.chunk_overhead_s();
                    w.iterations += sub->second - sub->first;
                    ++w.sub_chunks;
                }
                if (tracing) {
                    tracer.record(trace::EventKind::LocalPop, now, push.released,
                                  sub ? sub->first : -1, sub ? sub->second : -1,
                                  push.wait, leaf_level);
                    tracer.instant(trace::EventKind::RefillEnd, push.released, start,
                                   size, leaf_level);
                    if (sub) {
                        const double exec0 = push.released + costs.chunk_overhead_s();
                        tracer.instant(trace::EventKind::ChunkExecBegin, exec0,
                                       sub->first, sub->second);
                        tracer.instant(trace::EventKind::ChunkExecEnd, exec0 + compute,
                                       sub->first, sub->second);
                    }
                }
                if (sub && source.wants_feedback()) {
                    source.report(w.node, sub->second - sub->first, compute,
                                  push.released - now + costs.chunk_overhead_s());
                    feedback_pending[static_cast<std::size_t>(ev.worker)] = 1;
                }
                if (sub) {
                    credit_slot = compute;
                }
                events.push(
                    {push.released + costs.chunk_overhead_s() + compute, ev.worker});
                continue;
            }
        }

        // ---- wait for in-flight work, keep polling, or terminate --------
        if (node.unallocated > 0) {
            // Work exists but was not yet visible at our inspection time;
            // wake when the earliest pending push completes.
            double earliest = std::numeric_limits<double>::infinity();
            for (std::size_t i = node.head; i < node.chunks.size(); ++i) {
                const ChunkState& c = node.chunks[i];
                if (!c.exhausted()) {
                    earliest = std::min(earliest, c.visible_at);
                }
            }
            const double next = std::max(now, earliest);
            w.idle += next - now;
            if (tracing && waiting_since < 0.0) {
                waiting_since = now;
            }
            events.push({next, ev.worker});
            continue;
        }
        if (!source.exhausted(w.node)) {
            // Only reachable for nowait non-masters: the pool is empty and
            // the master has not refilled yet — poll again later.
            w.idle += poll_quantum;
            if (tracing && waiting_since < 0.0) {
                waiting_since = now;
            }
            events.push({now + poll_quantum, ev.worker});
            continue;
        }
        if (failure_armed) {
            // An armed failure has not fired yet: reclaimed remainders may
            // still land on this node, so keep polling instead of
            // terminating (the sim analogue of the reclamation drain).
            w.idle += poll_quantum;
            if (tracing && waiting_since < 0.0) {
                waiting_since = now;
            }
            events.push({now + poll_quantum, ev.worker});
            continue;
        }
        close_wait(now);
        if (tracing) {
            tracer.instant(trace::EventKind::Terminate, now);
        }
        w.finish = now;
        ++finished;
    }

    double max_finish = 0.0;
    for (const auto& w : report.workers) {
        max_finish = std::max(max_finish, w.finish);
    }
    report.parallel_time = max_finish;
    attach_trace();
    return report;
}

}  // namespace hdls::sim::detail
