/// \file bench_micro_queue_primitives.cpp
/// google-benchmark micro-measurements of the queue primitives whose cost
/// ordering drives the paper's result: the OpenMP-style atomic dequeue vs
/// the MPI-style locked window access (and the real minimpi window path and
/// node-queue pop).
/// These are *host* costs — the simulator's CostModel adds the MPI
/// software-path constants on top — but the ordering (atomic << lock)
/// and the contention trend are the properties the model relies on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <shared_mutex>

#include "core/local_queue.hpp"
#include "minimpi/minimpi.hpp"

namespace {

/// OpenMP schedule(dynamic) analogue: one atomic fetch-add per dequeue.
void BM_OmpStyleAtomicDequeue(benchmark::State& state) {
    static std::atomic<std::int64_t> counter{0};
    if (state.thread_index() == 0) {
        counter.store(0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(counter.fetch_add(1, std::memory_order_acq_rel));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OmpStyleAtomicDequeue)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

/// MPI_Win_lock-style access: exclusive lock epoch around a read-modify-
/// write of the queue state (the paper's per-sub-chunk node-queue access
/// under the MPI+MPI approach; NodeWorkQueue claims steps lock-free and
/// takes the lock once per pushed parent chunk).
void BM_MpiStyleLockedQueueAccess(benchmark::State& state) {
    static std::shared_mutex window_lock;
    static std::int64_t queue_state[4] = {0, 0, 0, 0};
    for (auto _ : state) {
        window_lock.lock();
        queue_state[0] += 1;  // a step counter
        queue_state[1] += 7;  // the iterations it covers
        benchmark::DoNotOptimize(queue_state[1]);
        window_lock.unlock();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpiStyleLockedQueueAccess)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

/// The real minimpi path: window fetch_add hammered by `ranks` rank
/// threads. Measured with manual timing because each benchmark iteration
/// launches a whole runtime (amortized over kOpsPerRank window ops).
void BM_MinimpiWindowFetchOp(benchmark::State& state) {
    const int ranks = static_cast<int>(state.range(0));
    constexpr std::int64_t kOpsPerRank = 20000;
    for (auto _ : state) {
        using Clock = std::chrono::steady_clock;
        double seconds = 0.0;
        minimpi::Runtime::run(ranks, [&](minimpi::Context& ctx) {
            auto win = minimpi::Window::allocate_shared(
                ctx.world(), ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
            ctx.world().barrier();
            const auto t0 = Clock::now();
            for (std::int64_t i = 0; i < kOpsPerRank; ++i) {
                benchmark::DoNotOptimize(win.fetch_add<std::int64_t>(1, 0, 0));
            }
            ctx.world().barrier();
            if (ctx.rank() == 0) {
                seconds = std::chrono::duration<double>(Clock::now() - t0).count();
            }
            win.free();
        });
        state.SetIterationTime(seconds);
    }
    state.SetItemsProcessed(state.iterations() * kOpsPerRank * ranks);
}
BENCHMARK(BM_MinimpiWindowFetchOp)->Arg(1)->Arg(4)->Arg(8)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The real minimpi locked-epoch path (lock + update + unlock), as used by
/// NodeWorkQueue's refill push, under rank contention.
void BM_MinimpiWindowLockEpoch(benchmark::State& state) {
    const int ranks = static_cast<int>(state.range(0));
    constexpr std::int64_t kOpsPerRank = 5000;
    for (auto _ : state) {
        using Clock = std::chrono::steady_clock;
        double seconds = 0.0;
        minimpi::Runtime::run(ranks, [&](minimpi::Context& ctx) {
            auto win = minimpi::Window::allocate_shared(
                ctx.world(), ctx.rank() == 0 ? 4 * sizeof(std::int64_t) : 0);
            auto cells = win.shared_span<std::int64_t>(0);
            ctx.world().barrier();
            const auto t0 = Clock::now();
            for (std::int64_t i = 0; i < kOpsPerRank; ++i) {
                win.lock(minimpi::LockType::Exclusive, 0);
                cells[0] += 1;
                cells[1] += 7;
                win.unlock(0);
            }
            ctx.world().barrier();
            if (ctx.rank() == 0) {
                seconds = std::chrono::duration<double>(Clock::now() - t0).count();
            }
            win.free();
        });
        state.SetIterationTime(seconds);
    }
    state.SetItemsProcessed(state.iterations() * kOpsPerRank * ranks);
}
BENCHMARK(BM_MinimpiWindowLockEpoch)->Arg(1)->Arg(4)->Arg(8)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The real node-queue pop that replaced the locked access: `ranks` rank
/// threads drain one pushed SS chunk through NodeWorkQueue::try_pop, each
/// pop one compare-and-swap on the head slot's claim word.
void BM_NodeQueueStepClaim(benchmark::State& state) {
    const int ranks = static_cast<int>(state.range(0));
    constexpr std::int64_t kOpsPerRank = 20000;
    for (auto _ : state) {
        using Clock = std::chrono::steady_clock;
        double seconds = 0.0;
        minimpi::Runtime::run(ranks, [&](minimpi::Context& ctx) {
            hdls::core::NodeWorkQueue queue(ctx.world(), hdls::dls::Technique::SS, 1);
            if (ctx.rank() == 0) {
                queue.begin_refill();
                (void)queue.push_and_pop(0, kOpsPerRank * ranks);
            }
            ctx.world().barrier();
            const auto t0 = Clock::now();
            while (queue.try_pop()) {
            }
            ctx.world().barrier();
            if (ctx.rank() == 0) {
                seconds = std::chrono::duration<double>(Clock::now() - t0).count();
            }
            queue.free();
        });
        state.SetIterationTime(seconds);
    }
    state.SetItemsProcessed(state.iterations() * kOpsPerRank * ranks);
}
BENCHMARK(BM_NodeQueueStepClaim)->Arg(1)->Arg(4)->Arg(8)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
