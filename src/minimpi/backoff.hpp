#pragma once
/// \file backoff.hpp
/// Lock-polling discipline of the passive-target windows.
///
/// MPI_Win_lock on a contended target is a polling protocol: a blocked
/// origin re-sends lock-attempt messages until the target grants the
/// epoch (Zhao, Balaji & Gropp, ISPDC'16 — the cost the paper's intra-node
/// SS discussion revolves around). The runtime mirrors that with a
/// try_lock polling loop paced by an exponential pause/yield/sleep ladder:
/// a few cache-polite pause spins for short holds, then scheduler yields,
/// then exponentially growing sleeps capped in the hundreds of
/// microseconds — contended handoffs stop hammering the lock line and the
/// waiters' attempt traffic collapses (bench_ablation_lock_polling
/// measures it). The same ladder paces every other polled wait in the
/// runtime (nonblocking CAS tests, shm mailbox scans).

#include <chrono>
#include <thread>

#include "metrics/metrics.hpp"

namespace minimpi {

/// The exponential backoff ladder: call pause() after every failed
/// acquisition attempt. Stateful and cheap — a handful of on-core pause
/// instructions first, then scheduler yields, then exponentially growing
/// sleeps (1us doubling to a 256us cap), so waiters cost almost nothing
/// whether the hold is tens of nanoseconds or milliseconds.
class Backoff {
public:
    void pause() noexcept {
        if (attempts_ < kPauseAttempts) {
            ++attempts_;
            cpu_relax();
            return;
        }
        if (attempts_ < kPauseAttempts + kYieldAttempts) {
            ++attempts_;
            // Metrics only past the pause phase: a yield/sleep costs µs, so
            // the relaxed fetch_add is noise there; the pause spins stay
            // instrumentation-free.
            hdls::metrics::rt().window_backoff_yields->inc();
            std::this_thread::yield();
            return;
        }
        hdls::metrics::rt().window_backoff_sleeps->inc();
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
        if (sleep_us_ < kMaxSleepUs) {
            sleep_us_ *= 2;
        }
    }

    void reset() noexcept {
        attempts_ = 0;
        sleep_us_ = 1;
    }

private:
    static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#else
        std::this_thread::yield();
#endif
    }

    static constexpr int kPauseAttempts = 64;
    static constexpr int kYieldAttempts = 32;
    static constexpr int kMaxSleepUs = 256;

    int attempts_ = 0;
    int sleep_us_ = 1;
};

}  // namespace minimpi
