#pragma once
/// \file sharded_relay.hpp
/// The *sharded* relay queue: the work-stealing backend for interior
/// levels of a topology tree.
///
/// ShardedInterQueue shards a range known at construction ([0, N) at the
/// root); an interior level instead receives chunks dynamically from its
/// parent. The sharded relay reconciles the two: every arriving parent
/// chunk is immediately partitioned among the level's `fan_out` children
/// (dls::shard_partition, the same largest-remainder apportionment the
/// root backend uses), each child self-schedules its own shard segments
/// with the step-indexed formulas (dls::shard_chunk_hint, P = fan_out),
/// and a child whose shards are dry steals half the remainder of the most
/// loaded sibling's front segment (dls::steal_amount). Owners and thieves
/// both carve from the front of a segment's remainder, so each segment —
/// and therefore each parent chunk — tiles exactly no matter how the two
/// interleave.
///
/// The queue state lives in one group-hosted shared window accessed under
/// exclusive-lock epochs (a relay is touched once per refill, not per
/// iteration, so the lock is not the hotspot the leaf-level discussion of
/// the paper revolves around); what the sharded
/// policy changes is *ownership*: children drain their own share first and
/// cross-child transfers are explicit steals, visible as level-tagged
/// Steal events in the trace.

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/local_queue.hpp"
#include "dls/sharding.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

class ShardedRelayQueue final : public LevelQueue {
public:
    using SubChunk = LevelQueue::SubChunk;

    /// Collective over the level communicator. `fan_out` is the number of
    /// children (shards) of this level and `child` the caller's child
    /// index in [0, fan_out). Requires dls::supports_sharded(technique).
    ShardedRelayQueue(const minimpi::Comm& comm, dls::Technique technique,
                      std::int64_t min_chunk, int fan_out, int child)
        : comm_(comm),
          fan_out_(fan_out),
          child_(child),
          min_chunk_(min_chunk),
          ring_(comm.size() + 4) {
        if (!dls::supports_sharded(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "ShardedRelayQueue: technique has no sharded form");
        }
        if (child < 0 || child >= fan_out) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "ShardedRelayQueue: child index out of range");
        }
        technique_ = technique;
        formula_ = dls::shard_formula(technique);
        const std::size_t cells =
            kChildBase + static_cast<std::size_t>(fan_out_) *
                             (2 + static_cast<std::size_t>(ring_) * kSegFields);
        window_ = minimpi::Window::allocate_shared(
            comm, comm.rank() == 0 ? cells * sizeof(std::int64_t) : 0);
        if (comm.rank() == 0) {
            auto mem = window_.shared_span<std::int64_t>(0);
            for (auto& v : mem) {
                v = 0;
            }
        }
        window_.sync();
        comm_.barrier();
    }

    [[nodiscard]] std::optional<SubChunk> try_pop(double* lock_wait_s = nullptr) override {
        lock_timed(lock_wait_s);
        const auto sub = pop_locked();
        window_.unlock(kHost);
        return sub;
    }

    void begin_refill() override {
        (void)window_.fetch_add<std::int64_t>(1, kHost, kInflight);
    }

    /// The announcement as a nonblocking window op (the prefetch issue
    /// path): +1 on the in-flight counter, completed via the request.
    [[nodiscard]] minimpi::AtomicUpdateRequest<std::int64_t> begin_refill_async() override {
        return window_.start_atomic_update<std::int64_t>(
            kHost, kInflight, [](std::int64_t v) { return v + 1; });
    }

    void end_refill() override {
        (void)window_.fetch_add<std::int64_t>(-1, kHost, kInflight);
    }

    [[nodiscard]] std::optional<SubChunk> push_and_pop(std::int64_t start, std::int64_t size,
                                                       double* lock_wait_s = nullptr) override {
        const Release release(*this);
        lock_timed(lock_wait_s);
        auto mem = window_.shared_span<std::int64_t>(kHost);
        const std::vector<std::int64_t> parts = dls::shard_partition(size, {}, fan_out_);
        std::int64_t off = 0;
        for (int c = 0; c < fan_out_; ++c) {
            const std::int64_t part = parts[static_cast<std::size_t>(c)];
            if (part > 0) {
                const std::int64_t head = mem[head_cell(c)];
                const std::int64_t tail = mem[tail_cell(c)];
                if (tail - head >= ring_) {
                    window_.unlock(kHost);
                    throw minimpi::Error(minimpi::ErrorCode::Internal,
                                         "ShardedRelayQueue: ring capacity exceeded");
                }
                std::int64_t* seg = seg_of(mem, c, tail);
                seg[kSegStart] = start + off;
                seg[kSegSize] = part;
                seg[kSegTaken] = 0;
                seg[kSegStep] = 0;
                mem[tail_cell(c)] = tail + 1;
            }
            off += part;
        }
        const auto sub = pop_locked();
        window_.unlock(kHost);
        return sub;
    }

    [[nodiscard]] bool has_pending() override {
        window_.lock(minimpi::LockType::Shared, kHost);
        auto mem = window_.shared_span<std::int64_t>(kHost);
        bool pending = false;
        for (int c = 0; c < fan_out_ && !pending; ++c) {
            for (std::int64_t i = mem[head_cell(c)]; i < mem[tail_cell(c)]; ++i) {
                const std::int64_t* seg = seg_of(mem, c, i);
                if (seg[kSegTaken] < seg[kSegSize]) {
                    pending = true;
                    break;
                }
            }
        }
        window_.unlock(kHost);
        return pending;
    }

    [[nodiscard]] bool refills_in_flight() override {
        return window_.atomic_read<std::int64_t>(kHost, kInflight) > 0;
    }

    [[nodiscard]] std::int64_t popped() const noexcept override { return popped_; }

    /// Sub-chunks this handle carved from a sibling's shard.
    [[nodiscard]] std::int64_t stolen() const noexcept { return stolen_; }

    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    void free() override {
        comm_.barrier();
        window_.free();
    }

private:
    class Release {
    public:
        explicit Release(ShardedRelayQueue& queue) noexcept : queue_(queue) {}
        ~Release() { queue_.end_refill(); }
        Release(const Release&) = delete;
        Release& operator=(const Release&) = delete;

    private:
        ShardedRelayQueue& queue_;
    };

    void lock_timed(double* lock_wait_s) {
        if (lock_wait_s == nullptr) {
            window_.lock(minimpi::LockType::Exclusive, kHost);
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        window_.lock(minimpi::LockType::Exclusive, kHost);
        *lock_wait_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }

    static constexpr int kHost = 0;
    static constexpr std::size_t kInflight = 0;
    static constexpr std::size_t kChildBase = 2;  // spare cell keeps layout aligned
    static constexpr std::size_t kSegFields = 4;
    static constexpr std::size_t kSegStart = 0;
    static constexpr std::size_t kSegSize = 1;
    static constexpr std::size_t kSegTaken = 2;
    static constexpr std::size_t kSegStep = 3;

    [[nodiscard]] std::size_t head_cell(int child) const noexcept {
        return kChildBase + 2 * static_cast<std::size_t>(child);
    }
    [[nodiscard]] std::size_t tail_cell(int child) const noexcept {
        return head_cell(child) + 1;
    }
    [[nodiscard]] std::int64_t* seg_of(std::span<std::int64_t> mem, int child,
                                       std::int64_t index) const noexcept {
        const std::size_t rings = kChildBase + 2 * static_cast<std::size_t>(fan_out_);
        const auto s = static_cast<std::size_t>(index % ring_);
        return mem.data() + rings +
               (static_cast<std::size_t>(child) * static_cast<std::size_t>(ring_) + s) *
                   kSegFields;
    }

    /// First segment of `child` still holding unassigned work (retiring
    /// fully-taken front segments); nullptr when the child's shard is dry.
    [[nodiscard]] std::int64_t* front_seg(std::span<std::int64_t> mem, int child) noexcept {
        std::int64_t& head = mem[head_cell(child)];
        const std::int64_t tail = mem[tail_cell(child)];
        while (head < tail) {
            std::int64_t* seg = seg_of(mem, child, head);
            if (seg[kSegTaken] < seg[kSegSize]) {
                return seg;
            }
            ++head;
        }
        return nullptr;
    }

    /// Owner pop from the own shard, then steal from the most loaded
    /// sibling; caller holds the exclusive lock.
    [[nodiscard]] std::optional<SubChunk> pop_locked() {
        auto mem = window_.shared_span<std::int64_t>(kHost);
        if (std::int64_t* seg = front_seg(mem, child_)) {
            const std::int64_t taken = seg[kSegTaken];
            const std::int64_t hint = dls::shard_chunk_hint(formula_, seg[kSegSize], fan_out_,
                                                            min_chunk_, seg[kSegStep]);
            const std::int64_t take =
                hint > 0 ? std::min(hint, seg[kSegSize] - taken) : seg[kSegSize] - taken;
            seg[kSegTaken] = taken + take;
            ++seg[kSegStep];
            ++popped_;
            const std::int64_t begin = seg[kSegStart] + taken;
            return SubChunk{begin, begin + take, false};
        }
        // Own shard dry: steal from the sibling with the largest remainder.
        int victim = -1;
        std::int64_t best = 0;
        for (int c = 0; c < fan_out_; ++c) {
            if (c == child_) {
                continue;
            }
            std::int64_t remaining = 0;
            for (std::int64_t i = mem[head_cell(c)]; i < mem[tail_cell(c)]; ++i) {
                const std::int64_t* seg = seg_of(mem, c, i);
                remaining += seg[kSegSize] - seg[kSegTaken];
            }
            if (remaining > best) {
                best = remaining;
                victim = c;
            }
        }
        if (victim < 0) {
            return std::nullopt;
        }
        std::int64_t* seg = front_seg(mem, victim);
        const std::int64_t taken = seg[kSegTaken];
        const std::int64_t take = dls::steal_amount(seg[kSegSize] - taken, min_chunk_);
        seg[kSegTaken] = taken + take;
        ++popped_;
        ++stolen_;
        const std::int64_t begin = seg[kSegStart] + taken;
        return SubChunk{begin, begin + take, true};
    }

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::Technique technique_{};
    dls::Technique formula_{};
    int fan_out_ = 0;
    int child_ = 0;
    std::int64_t min_chunk_ = 1;
    std::int64_t ring_ = 0;
    std::int64_t popped_ = 0;
    std::int64_t stolen_ = 0;
};

}  // namespace hdls::core
