/// \file engine_hybrid.cpp
/// Node-level simulation engine for the MPI+OpenMP baseline.
///
/// Nodes interact only through the global work queue, so the event loop
/// advances whole node "rounds": the node whose master is ready earliest
/// fetches the next chunk (global accesses thus serialize in virtual-time
/// order), then its thread team executes the chunk under the intra
/// schedule, and the implicit end-of-worksharing barrier (paper Figure 2)
/// synchronizes the team before the next fetch.

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

struct NodeRun {
    std::vector<double> clock;  // per-thread virtual time
};

struct Event {
    double time;
    int node;
    friend bool operator>(const Event& a, const Event& b) {
        return a.time != b.time ? a.time > b.time : a.node > b.node;
    }
};

}  // namespace

SimReport simulate_hybrid_barrier(const ClusterSpec& cluster, const SimConfig& config,
                                  const WorkloadTrace& workload) {
    const CostModel& costs = cluster.costs;
    const int team = cluster.workers_per_node;
    const std::int64_t n = workload.iterations();

    SimReport report;
    report.nodes = cluster.nodes;
    report.workers_per_node = team;
    report.topology = cluster.effective_tree();
    report.total_iterations = n;
    report.workers.assign(static_cast<std::size_t>(cluster.total_workers()), SimWorker{});
    for (int w = 0; w < cluster.total_workers(); ++w) {
        report.workers[static_cast<std::size_t>(w)].node = w / team;
        report.workers[static_cast<std::size_t>(w)].worker_in_node = w % team;
    }
    EngineTrace engine_trace(cluster, config);
    const auto attach_trace = [&] {
        engine_trace.attach(report, ExecModel::MpiOpenMp, cluster, config, n);
    };

    if (n == 0) {
        attach_trace();
        return report;
    }

    // The whole hierarchy above the thread-team leaves (root backend + any
    // relay levels of a deep tree), priced per level in one shared place.
    const SimPlan plan = resolve_sim_plan(cluster, config);
    const dls::Technique leaf_technique = plan.levels.back().technique;
    HierarchicalSource source(cluster, config, plan, n);

    std::vector<NodeRun> nodes(static_cast<std::size_t>(cluster.nodes));
    for (auto& nr : nodes) {
        nr.clock.assign(static_cast<std::size_t>(team), 0.0);
    }

    // Fail-stop injection (SimConfig::failure): the kill fires at the
    // first node round after `trigger_iters` iterations were fetched; the
    // dead node's team leaves at its next round boundary (the in-flight
    // chunk's workshare + barrier complete first — Figure 2 has no
    // preemption point inside the construct). Nothing is reclaimed: the
    // baseline keeps no node-local queue, so the unfetched remainder simply
    // drains through the surviving masters.
    const SimFailure& fail = config.failure;
    bool failure_armed = fail.enabled();
    const auto trigger_iters =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                      fail.at_fraction * static_cast<double>(n)));
    std::int64_t assigned = 0;
    std::vector<char> node_dead(static_cast<std::size_t>(cluster.nodes), 0);

    const auto worker_of = [&](int node, int tid) -> SimWorker& {
        return report.workers[static_cast<std::size_t>(node * team + tid)];
    };

    /// Team barrier at the end of a phase: everyone waits for the slowest,
    /// then pays the barrier cost. The wait is the Figure-2 idle time.
    const auto barrier = [&](int node) {
        NodeRun& nr = nodes[static_cast<std::size_t>(node)];
        double latest = 0.0;
        for (const double c : nr.clock) {
            latest = std::max(latest, c);
        }
        const double done = latest + costs.barrier_s(team);
        for (int tid = 0; tid < team; ++tid) {
            SimWorker& w = worker_of(node, tid);
            w.idle += latest - nr.clock[static_cast<std::size_t>(tid)];
            w.overhead += costs.barrier_s(team);
            auto& tracer = engine_trace.tracer(node * team + tid);
            if (tracer.enabled()) {
                tracer.record(trace::EventKind::BarrierWait,
                              nr.clock[static_cast<std::size_t>(tid)], done);
            }
            nr.clock[static_cast<std::size_t>(tid)] = done;
        }
        return done;
    };

    /// Executes one level-1 chunk on the node's team under the intra
    /// schedule (no barrier here; the caller adds it).
    const auto workshare = [&](int node, std::int64_t start, std::int64_t size) {
        NodeRun& nr = nodes[static_cast<std::size_t>(node)];
        if (leaf_technique == dls::Technique::Static) {
            // schedule(static): one contiguous slice per thread, no shared
            // counter, no dequeue cost.
            const std::int64_t base = size / team;
            const std::int64_t extra = size % team;
            std::int64_t begin = start;
            for (int tid = 0; tid < team; ++tid) {
                const std::int64_t len = base + (tid < extra ? 1 : 0);
                if (len > 0) {
                    SimWorker& w = worker_of(node, tid);
                    const double compute =
                        workload.range_cost(begin, begin + len) / cluster.speed(node);
                    w.busy += compute;
                    w.overhead += costs.chunk_overhead_s();
                    w.iterations += len;
                    ++w.sub_chunks;
                    auto& tracer = engine_trace.tracer(node * team + tid);
                    if (tracer.enabled()) {
                        const double exec0 = nr.clock[static_cast<std::size_t>(tid)] +
                                             costs.chunk_overhead_s();
                        tracer.instant(trace::EventKind::ChunkExecBegin, exec0, begin,
                                       begin + len);
                        tracer.instant(trace::EventKind::ChunkExecEnd, exec0 + compute,
                                       begin, begin + len);
                    }
                    nr.clock[static_cast<std::size_t>(tid)] +=
                        costs.chunk_overhead_s() + compute;
                    begin += len;
                }
            }
            return;
        }
        // Self-scheduled kinds (dynamic/guided/tss/fac2 <-> SS/GSS/TSS/FAC2):
        // a shared counter serializes dequeues; threads advance min-clock
        // first, which is the order their requests would issue.
        dls::LoopParams p;
        p.total_iterations = size;
        p.workers = team;
        p.min_chunk = config.min_chunk;
        const dls::StepTable slices(leaf_technique, p);
        FcfsResource counter(costs.omp_dequeue_s());
        std::int64_t step = 0;
        std::vector<bool> done(static_cast<std::size_t>(team), false);
        int remaining_threads = team;
        while (remaining_threads > 0) {
            int tid = -1;
            double best = std::numeric_limits<double>::infinity();
            for (int i = 0; i < team; ++i) {
                if (!done[static_cast<std::size_t>(i)] &&
                    nr.clock[static_cast<std::size_t>(i)] < best) {
                    best = nr.clock[static_cast<std::size_t>(i)];
                    tid = i;
                }
            }
            SimWorker& w = worker_of(node, tid);
            auto& tracer = engine_trace.tracer(node * team + tid);
            const double before = counter.busy_until();
            const double completion = counter.acquire(best);
            const double dequeue_wait = std::max(0.0, before - best);
            w.lock_wait += dequeue_wait;
            w.overhead += completion - best;
            if (step >= slices.steps()) {
                // Failed dequeue: the thread leaves the construct.
                if (tracer.enabled()) {
                    tracer.record(trace::EventKind::LocalPop, best, completion, -1, -1,
                                  dequeue_wait, plan.depth() - 1);
                }
                nr.clock[static_cast<std::size_t>(tid)] = completion;
                done[static_cast<std::size_t>(tid)] = true;
                --remaining_threads;
                continue;
            }
            const dls::StepRange range = slices.at(step++);
            const std::int64_t take = range.size;
            const std::int64_t begin = start + range.start;
            const double compute =
                workload.range_cost(begin, begin + take) / cluster.speed(node);
            w.busy += compute;
            w.overhead += costs.chunk_overhead_s();
            w.iterations += take;
            ++w.sub_chunks;
            if (tracer.enabled()) {
                tracer.record(trace::EventKind::LocalPop, best, completion, begin,
                              begin + take, dequeue_wait, plan.depth() - 1);
                const double exec0 = completion + costs.chunk_overhead_s();
                tracer.instant(trace::EventKind::ChunkExecBegin, exec0, begin, begin + take);
                tracer.instant(trace::EventKind::ChunkExecEnd, exec0 + compute, begin,
                               begin + take);
            }
            nr.clock[static_cast<std::size_t>(tid)] =
                completion + costs.chunk_overhead_s() + compute;
        }
    };

    // Asynchronous prefetching (SimConfig::prefetch): the master's next
    // fetch is issued when the team starts on the current chunk, so its
    // latency hides under the chunk's team-execution window. Adaptive
    // roots are never discounted — the fetch must follow the feedback the
    // master posts after the join barrier. Depth-2 trees are not
    // discounted either, mirroring the real executor: the funneled
    // master workshares alongside its team and has no relay chain to
    // prefetch through (build_hierarchy leaves its chain root-only).
    const bool prefetch =
        config.prefetch && !source.wants_feedback() && plan.depth() > 2;
    std::vector<double> overlap_credit(static_cast<std::size_t>(cluster.nodes), 0.0);

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
    for (int node = 0; node < cluster.nodes; ++node) {
        events.push({0.0, node});
    }
    int finished_nodes = 0;
    while (finished_nodes < cluster.nodes) {
        const Event ev = events.top();
        events.pop();
        NodeRun& nr = nodes[static_cast<std::size_t>(ev.node)];
        SimWorker& master = worker_of(ev.node, 0);

        if (failure_armed && assigned >= trigger_iters) {
            failure_armed = false;
            node_dead[static_cast<std::size_t>(fail.node)] = 1;
        }
        if (node_dead[static_cast<std::size_t>(ev.node)] != 0) {
            // The killed node's team fail-stops at the round boundary; its
            // threads' clocks are already joined by the last barrier.
            for (int tid = 0; tid < team; ++tid) {
                worker_of(ev.node, tid).finish = nr.clock[static_cast<std::size_t>(tid)];
                auto& tracer = engine_trace.tracer(ev.node * team + tid);
                if (tracer.enabled()) {
                    tracer.instant(trace::EventKind::Terminate,
                                   nr.clock[static_cast<std::size_t>(tid)]);
                }
            }
            ++finished_nodes;
            continue;
        }

        // Master (thread 0) fetches the next chunk: MPI_THREAD_FUNNELED.
        const double t0 = nr.clock[0];
        auto& master_tracer = engine_trace.tracer(ev.node * team);
        std::optional<std::pair<std::int64_t, std::int64_t>> chunk;
        double fetch_overhead = 0.0;
        double& credit_slot = overlap_credit[static_cast<std::size_t>(ev.node)];
        const double my_credit = prefetch ? credit_slot : -1.0;
        credit_slot = 0.0;
        if (!source.exhausted(ev.node)) {
            double done = t0;
            double retry_at = 0.0;
            PrefetchCharge pf;
            const auto take =
                source.acquire(ev.node, t0, &done, &retry_at, my_credit, &pf);
            master.overhead += done - t0;
            if (take && my_credit >= 0.0 && master_tracer.enabled()) {
                master_tracer.record(trace::EventKind::Prefetch, done, done, pf.hit ? 1 : 0,
                                     take->start, pf.hidden, take->level);
            }
            nr.clock[0] = done;
            if (!take && std::isfinite(retry_at)) {
                // Work is in flight up the branch but not yet visible: the
                // master idles until it lands and retries (no barrier — the
                // team is still waiting for the publish).
                const double next = std::max(done, retry_at);
                master.idle += next - done;
                nr.clock[0] = next;
                events.push({next, ev.node});
                continue;
            }
            if (!take) {
                if (master_tracer.enabled()) {
                    master_tracer.record(trace::EventKind::GlobalAcquire, t0, done, 0, 0);
                }
            } else {
                chunk = std::pair{take->start, take->size};
                fetch_overhead = done - t0;
                assigned += take->size;
                ++master.global_refills;
                if (master_tracer.enabled()) {
                    // Prefetched fetches keep the physical flight time in
                    // the epoch (the hidden share rides the Prefetch
                    // event); `done` is the discounted completion.
                    const double epoch_end = my_credit >= 0.0 ? t0 + pf.raw : done;
                    master_tracer.record(take->stolen ? trace::EventKind::Steal
                                                      : trace::EventKind::GlobalAcquire,
                                         t0, epoch_end, chunk->first, chunk->second, 0.0,
                                         take->level);
                }
            }
        }

        // Publish barrier: the team learns the chunk bounds (and pays for
        // the funneled fetch by idling).
        const double published = barrier(ev.node);

        if (!chunk) {
            for (int tid = 0; tid < team; ++tid) {
                worker_of(ev.node, tid).finish = published;
                auto& tracer = engine_trace.tracer(ev.node * team + tid);
                if (tracer.enabled()) {
                    tracer.instant(trace::EventKind::Terminate, published);
                }
            }
            ++finished_nodes;
            continue;
        }

        workshare(ev.node, chunk->first, chunk->second);
        double joined = barrier(ev.node);  // the implicit barrier
        // The team-execution window the *next* fetch can hide under.
        credit_slot = std::max(0.0, joined - published);
        if (source.wants_feedback()) {
            // The master posts the chunk's feedback before the next fetch:
            // the node's wall time for the chunk is its rate denominator.
            // Priced as the real report(): three accumulator RMA updates.
            source.report(ev.node, chunk->second, joined - published, fetch_overhead);
            const double flush = feedback_flush_s(costs);
            master.overhead += flush;
            nr.clock[0] += flush;
            joined += flush;
        }
        events.push({joined, ev.node});
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
