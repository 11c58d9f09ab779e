#pragma once
/// \file span_recorder.hpp
/// Body spans recorded from outside the library: a wrapper around the
/// loop body that stamps every call's start and end on the calling
/// thread's slot. The executors call the body from exactly one thread per
/// worker (a rank under MPI+MPI, a team thread under MPI+OpenMP), so a
/// thread's slot is that worker's span list.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bookkeeping.hpp"
#include "core/types.hpp"

namespace perfbench {

class SpanRecorder {
public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() = default;
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /// Clears the slots for a loop on `workers` workers, reserving
    /// `reserve` spans per worker.
    void prepare(int workers, std::size_t reserve) {
        slots_.assign(static_cast<std::size_t>(workers), {});
        for (auto& s : slots_) {
            s.reserve(reserve);
        }
        next_slot_.store(0, std::memory_order_relaxed);
        generation_ = ++generations_;
    }

    /// Sets the loop clock's zero (the instant the loop call starts).
    void start(Clock::time_point origin) noexcept { origin_ = origin; }

    /// `body` with a span recorded around every call. The recorder and
    /// `body` must outlive the returned callable's use.
    [[nodiscard]] hdls::core::ChunkBody wrap(const hdls::core::ChunkBody& body) {
        return [this, &body](std::int64_t b, std::int64_t e) {
            const int slot = slot_of_this_thread();
            const double t0 = now();
            body(b, e);
            const double t1 = now();
            if (slot < static_cast<int>(slots_.size())) {
                slots_[static_cast<std::size_t>(slot)].push_back({t0, t1});
            } else {
                // More calling threads than workers: the slot-per-worker
                // assumption broke; attribute() flags the extra list.
                extra_threads_.store(true, std::memory_order_relaxed);
            }
        };
    }

    /// The per-worker span lists (an extra empty list when more threads
    /// than workers called the body, which attribute() rejects).
    [[nodiscard]] std::vector<std::vector<Span>> take() {
        auto out = std::move(slots_);
        if (extra_threads_.exchange(false)) {
            out.emplace_back();
        }
        return out;
    }

private:
    /// Seconds since the origin.
    [[nodiscard]] double now() const noexcept {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    int slot_of_this_thread() {
        struct Binding {
            std::uint64_t generation = 0;
            int slot = 0;
        };
        thread_local Binding binding;
        if (binding.generation != generation_) {
            binding = {generation_, next_slot_.fetch_add(1, std::memory_order_relaxed)};
        }
        return binding.slot;
    }

    inline static std::atomic<std::uint64_t> generations_{0};
    std::uint64_t generation_ = 0;
    Clock::time_point origin_{};
    std::atomic<int> next_slot_{0};
    std::atomic<bool> extra_threads_{false};
    std::vector<std::vector<Span>> slots_;
};

}  // namespace perfbench
