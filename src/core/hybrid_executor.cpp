#include "core/hybrid_executor.hpp"

#include <chrono>
#include <optional>
#include <string>

#include "core/hierarchy.hpp"
#include "dls/adaptive.hpp"
#include "metrics/metrics.hpp"
#include "metrics/watchdog.hpp"
#include "ompsim/team.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] ompsim::ForOptions intra_schedule_or_throw(const HierConfig& cfg,
                                                         dls::Technique intra) {
    if (const auto std_opt = ompsim::openmp_equivalent(intra)) {
        return *std_opt;
    }
    if (cfg.allow_extended_openmp_schedules) {
        if (const auto ext = ompsim::extended_equivalent(intra)) {
            return *ext;
        }
    }
    throw UnsupportedCombination(
        std::string("MPI+OpenMP cannot schedule ") + std::string(dls::technique_name(intra)) +
        " at the intra-node level (the OpenMP schedule clause offers only static, dynamic and "
        "guided; enable allow_extended_openmp_schedules for the libGOMP-style extensions)");
}
}  // namespace

std::vector<WorkerStats> run_hybrid_rank(minimpi::Context& ctx, int threads_per_node,
                                         std::int64_t n, const HierConfig& cfg,
                                         const ResolvedHierarchy& rh, const ChunkBody& body,
                                         trace::TraceSession* session, const RankHooks& hooks) {
    if (ctx.topology().ranks_per_node != 1) {
        throw UnsupportedCombination(
            "run_hybrid_rank: the MPI+OpenMP model maps exactly one rank per leaf group");
    }
    const dls::Technique intra = rh.levels.back().technique;
    const ompsim::ForOptions schedule = intra_schedule_or_throw(cfg, intra);
    const minimpi::Comm& world = ctx.world();

    std::vector<WorkerStats> stats(static_cast<std::size_t>(threads_per_node));
    std::vector<trace::WorkerTracer> tracers(static_cast<std::size_t>(threads_per_node));
    for (int t = 0; t < threads_per_node; ++t) {
        stats[static_cast<std::size_t>(t)].node = ctx.node();
        stats[static_cast<std::size_t>(t)].worker_in_node = t;
        if (session != nullptr) {
            tracers[static_cast<std::size_t>(t)] =
                session->tracer(ctx.rank() * threads_per_node + t, ctx.node());
        }
    }

    // The masters' chain: the tree truncated above the thread-team leaf.
    // Depth 2 leaves just the root backend; deeper trees add relay levels
    // whose ComposedWorkSources record the master's pop/refill events,
    // level-tagged, on top of the acquire events the master records below.
    Hierarchy hier =
        build_hierarchy(world, n, rh, cfg, tracers[0], /*include_leaf=*/false);
    WorkSource& chain = hier.top();
    // The master plays the leaf's puller role: it records the acquire-side
    // event for every chunk it pulls off the chain, tagged with the level
    // it pulled from (the chain top's own level, or the root at depth 2) —
    // exactly what a leaf ComposedWorkSource records under MPI+MPI.
    const int pull_level = hier.top_composed() != nullptr ? hier.top_composed()->level() : 0;
    const bool feedback = chain.wants_feedback();
    // Leaf placement: this rank's team occupies worker slots
    // [rank*T, rank*T + T) of the host-wide plan, so co-located ranks
    // interleave over the sockets instead of stacking onto core 0.
    ompsim::ThreadTeam::Placement placement;
    placement.policy = *cfg.pin;
    placement.first_worker = ctx.rank() * threads_per_node;
    ompsim::ThreadTeam team(threads_per_node, placement);

    const metrics::RuntimeMetrics& m = metrics::rt();
    // At depth 2 the chain is the bare root backend, so nothing below has
    // counted the master's acquisitions; deeper chains count their own
    // pops/refills inside the ComposedWorkSources.
    const bool count_master_acquire = hier.top_composed() == nullptr;
    const auto midx =
        static_cast<std::size_t>(metrics::RuntimeMetrics::level_index(pull_level));

    world.barrier();  // common start line
    const Clock::time_point t0 = Clock::now();

    // Shared between the team's threads within the region below.
    std::optional<WorkSource::Chunk> current;
    // Feedback bookkeeping (master thread only): the previous chunk's
    // bounds, when its execution started, and the acquire time that
    // obtained it (the overhead AWF-D/E fold into their rates).
    Clock::time_point chunk_t0 = t0;
    double acquire_seconds = 0.0;

    team.parallel([&](int tid) {
        auto& mine = stats[static_cast<std::size_t>(tid)];
        trace::WorkerTracer& tracer = tracers[static_cast<std::size_t>(tid)];
        const bool tracing = tracer.enabled();
        metrics::worker_enter(ctx.rank() * threads_per_node + tid, hooks.watchdog);
        for (;;) {
            if (tid == 0) {
                // The join barrier below serialized the team, so the
                // previous chunk is fully executed here: report it before
                // fetching the next (funneled model — master talks to MPI).
                if (feedback && current) {
                    const double elapsed = seconds_since(chunk_t0);
                    chain.report(current->size, elapsed, acquire_seconds);
                    if (tracing) {
                        tracer.instant(trace::EventKind::FeedbackReport, tracer.now(),
                                       current->size, dls::feedback_ns(elapsed));
                    }
                }
                const double acq_t0 = tracing ? tracer.now() : 0.0;
                const Clock::time_point a0 = Clock::now();
                current = chain.try_acquire();
                // Multi-tenant gate: one slot covers the whole team while
                // it workshares this chunk (funneled model). A refusal
                // cancels the run — dropping the chunk ends the team loop.
                if (current && hooks.gate != nullptr &&
                    !hooks.gate->begin_chunk(ctx.rank())) {
                    current.reset();
                }
                acquire_seconds = seconds_since(a0);
                chunk_t0 = Clock::now();
                if (count_master_acquire && current) {
                    m.acquire_latency_ns[midx]->observe(
                        static_cast<std::uint64_t>(acquire_seconds * 1e9));
                    (current->stolen ? m.steals : m.acquires)[midx]->inc();
                }
                if (tracing) {
                    tracer.record(current && current->stolen ? trace::EventKind::Steal
                                                             : trace::EventKind::GlobalAcquire,
                                  acq_t0, tracer.now(), current ? current->start : 0,
                                  current ? current->size : 0, 0.0, pull_level);
                }
                if (current) {
                    ++mine.global_refills;
                }
            }
            // Chunk bounds published to the team; non-masters idle here
            // while the master fetches (part of Figure 2's sync time).
            const double publish_t0 = tracing ? tracer.now() : 0.0;
            team.barrier();
            if (tracing) {
                tracer.record(trace::EventKind::BarrierWait, publish_t0, tracer.now());
            }
            if (!current) {
                break;
            }
            const auto chunk = *current;
            // #pragma omp for schedule(...) over the chunk — implicit
            // barrier at the end (Figure 2's synchronization points). The
            // time between a thread's last sub-chunk and the construct's
            // return is its barrier wait.
            double last_busy = tracing ? tracer.now() : 0.0;
            team.for_chunks(chunk.start, chunk.start + chunk.size, schedule,
                            [&](std::int64_t b, std::int64_t e, int thread_id) {
                                auto& ws = stats[static_cast<std::size_t>(thread_id)];
                                auto& thread_tracer =
                                    tracers[static_cast<std::size_t>(thread_id)];
                                if (thread_tracer.enabled()) {
                                    thread_tracer.instant(trace::EventKind::ChunkExecBegin,
                                                          thread_tracer.now(), b, e);
                                }
                                const Clock::time_point b0 = Clock::now();
                                body(b, e);
                                const double thread_busy = seconds_since(b0);
                                ws.busy_seconds += thread_busy;
                                ws.iterations += e - b;
                                ++ws.chunks;
                                m.exec_chunks->inc();
                                m.exec_iterations->inc(static_cast<std::uint64_t>(e - b));
                                m.chunk_exec_ns->observe(
                                    static_cast<std::uint64_t>(thread_busy * 1e9));
                                metrics::worker_beat(
                                    ctx.rank() * threads_per_node + thread_id, pull_level,
                                    b, thread_busy, hooks.watchdog);
                                if (thread_tracer.enabled()) {
                                    const double end = thread_tracer.now();
                                    thread_tracer.instant(trace::EventKind::ChunkExecEnd, end,
                                                          b, e);
                                    if (thread_id == tid) {
                                        last_busy = end;
                                    }
                                }
                            });
            if (tracing) {
                tracer.record(trace::EventKind::BarrierWait, last_busy, tracer.now());
            }
            if (tid == 0 && hooks.gate != nullptr) {
                // The worksharing construct's implicit barrier has passed:
                // the chunk is fully executed, release the team's slot.
                hooks.gate->end_chunk(ctx.rank(), chunk.size);
            }
        }
        if (tid == 0) {
            // Close chain-side wait spans (no-op at depth 2); the team's
            // own Terminate events follow below.
            hier.finish(/*terminate_top=*/false);
        }
        if (tracing) {
            tracer.instant(trace::EventKind::Terminate, tracer.now());
        }
        metrics::worker_leave(ctx.rank() * threads_per_node + tid, hooks.watchdog);
        mine.finish_seconds = seconds_since(t0);
    });

    hier.free();
    return stats;
}

}  // namespace hdls::core
