#pragma once
/// \file transport_threads.hpp
/// Internal: the in-process thread transport — the historical minimpi
/// substrate, extracted behind the Transport seam. Mailboxes are heap
/// deques under mutex+condvar; window segments live in an aligned heap
/// buffer with one epoch lock word per rank (see lock_word.hpp — epochs
/// may be released from any thread, so the lock table cannot be OS
/// rwlocks). Not part of the public API.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "minimpi/lock_word.hpp"
#include "minimpi/transport.hpp"

namespace minimpi::detail {

/// Mutex+condvar mailbox. push never blocks (unbounded heap buffering);
/// match parks on the condvar with a 50 ms abort-poll cadence.
class ThreadMailbox final : public Mailbox {
public:
    void push(Envelope e, const std::atomic<bool>& abort) override;
    Envelope match(const EnvelopeKey& key, const std::atomic<bool>& abort) override;
    void interrupt() override;

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Envelope> queue_;
};

/// Heap-backed window storage. The buffer is over-allocated and the base
/// rounded up so base() is genuinely 64-byte aligned — segments padded to
/// 64 bytes by the layout are then 64-byte aligned *absolutely*, not just
/// relative to the base (the alignment lie the sharded queue's
/// cache-line-padded cells used to be exposed to).
class ThreadWindowStorage final : public WindowStorage {
public:
    ThreadWindowStorage(std::size_t total_bytes, int ranks);

    [[nodiscard]] std::byte* base() noexcept override { return base_; }
    [[nodiscard]] bool try_lock(int rank, LockType type) noexcept override;
    void unlock(int rank, LockType type) noexcept override;

private:
    /// One epoch lock word per rank, cache-line padded against false
    /// sharing between contended targets.
    struct alignas(64) EpochWord {
        std::atomic<std::uint32_t> word{0};
    };

    std::vector<std::uint64_t> buffer_;
    std::byte* base_ = nullptr;
    std::unique_ptr<EpochWord[]> locks_;
};

class ThreadTransport final : public Transport {
public:
    explicit ThreadTransport(int world_size);

    [[nodiscard]] TransportKind kind() const noexcept override {
        return TransportKind::Threads;
    }
    [[nodiscard]] Mailbox& mailbox(int world_rank) noexcept override {
        return *mailboxes_[static_cast<std::size_t>(world_rank)];
    }
    [[nodiscard]] std::unique_ptr<WindowStorage> allocate_window(std::size_t total_bytes,
                                                                 int ranks) override;
    void signal_abort() noexcept override;

    void beat(int world_rank) noexcept override {
        live_[static_cast<std::size_t>(world_rank)].beats.fetch_add(
            1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t heartbeat(int world_rank) noexcept override {
        return live_[static_cast<std::size_t>(world_rank)].beats.load(
            std::memory_order_acquire);
    }
    void mark_dead(int world_rank) noexcept override {
        live_[static_cast<std::size_t>(world_rank)].dead.store(1, std::memory_order_release);
    }
    [[nodiscard]] bool is_dead(int world_rank) noexcept override {
        return live_[static_cast<std::size_t>(world_rank)].dead.load(
                   std::memory_order_acquire) != 0;
    }

private:
    /// One liveness line per rank: the heartbeat counter plus the sticky
    /// dead flag, padded so peers polling different ranks never share.
    struct alignas(64) LiveWord {
        std::atomic<std::uint64_t> beats{0};
        std::atomic<std::uint32_t> dead{0};
    };

    std::vector<std::unique_ptr<ThreadMailbox>> mailboxes_;
    std::unique_ptr<LiveWord[]> live_;
};

}  // namespace minimpi::detail
