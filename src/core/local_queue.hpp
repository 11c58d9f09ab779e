#pragma once
/// \file local_queue.hpp
/// The *local (node-level) work queue* of the paper's Figure 1 —
/// generalized to serve any non-root level of a topology tree.
///
/// One MPI_Win_allocate_shared window per group (hosted by group rank 0,
/// directly addressable by every rank of the group communicator) holding a
/// small ring of parent-level chunks. Each slot carries the chunk's bounds,
/// its step count under this level's technique (dls::StepTable, computed
/// by the refiller when it pushes) and a *claim word* packing the slot's
/// generation (its queue index) with the next unclaimed step. A pop is
/// lock-free: one compare-and-swap on the head slot's claim word takes a
/// step, and the sub-chunk's bounds follow from the step table locally —
/// no MPI_Win_lock epoch. The lock epoch whose polling cost the paper's
/// evaluation dissects (and the reason intra-node SS performed poorly under
/// MPI+MPI) is left on the push only: one exclusive epoch per parent chunk.
///
/// A pusher marks the slot busy before it rewrites it and publishes the
/// new claim word last, so a popper that read a slot's fields validates
/// them with the same CAS that claims the step: a slot reused under a slow
/// popper changes generation, and the stale CAS fails.
///
/// The refill protocol implements the paper's "the fastest MPI process
/// always takes this responsibility": no designated refiller exists; a rank
/// that finds the queue empty announces an in-flight refill (atomic
/// counter), fetches a chunk from the parent level, and appends it. Ranks
/// terminate only when the parent is exhausted, the queue is drained *and*
/// no refill is in flight.
///
/// LevelQueue is the abstract face of this protocol: ComposedWorkSource
/// (work_source.hpp) drives any implementation at any depth. Two exist —
/// NodeWorkQueue here (the centralized shared FIFO) and ShardedRelayQueue
/// (sharded_relay.hpp: per-child shards of every arriving chunk with
/// work stealing between children).

#include <chrono>
#include <cstdint>
#include <optional>

#include "dls/chunk_formulas.hpp"
#include "metrics/metrics.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// A non-root level's relay queue: receives parent-level chunks and hands
/// out sub-chunks sliced by this level's technique among its children.
class LevelQueue {
public:
    /// One sub-chunk: execute (or pass down) [begin, end). `stolen` marks
    /// a share carved from a sibling child's shard (sharded relay only).
    struct SubChunk {
        std::int64_t begin = 0;
        std::int64_t end = 0;
        bool stolen = false;
    };

    virtual ~LevelQueue() = default;

    /// Grabs a sub-chunk already queued at this level, or std::nullopt
    /// when no chunk currently holds unassigned work. When `lock_wait_s`
    /// is non-null it receives the lock-grant latency of the access (zero
    /// for a lock-free pop).
    [[nodiscard]] virtual std::optional<SubChunk> try_pop(double* lock_wait_s) = 0;

    /// Announce an in-flight refill *before* touching the parent level so
    /// peers do not terminate while a chunk is on its way.
    virtual void begin_refill() = 0;

    /// Nonblocking begin_refill(): posts the in-flight announcement as a
    /// request-based window op (Window::start_atomic_update) and returns
    /// the handle. The caller must complete it — wait() — before touching
    /// the parent level (the announcement-precedes-parent ordering of the
    /// termination protocol), but may overlap anything else first; that is
    /// the prefetcher's issue path. The default falls back to the blocking
    /// announcement and returns an already-complete request.
    [[nodiscard]] virtual minimpi::AtomicUpdateRequest<std::int64_t> begin_refill_async() {
        begin_refill();
        return {};
    }

    /// Withdraw the announcement (the parent turned out to be empty).
    virtual void end_refill() = 0;

    /// Append a fresh parent chunk and pop the caller's next sub-chunk,
    /// then withdraw the in-flight announcement (on every exit path,
    /// including throws). std::nullopt when peers claimed everything first.
    [[nodiscard]] virtual std::optional<SubChunk> push_and_pop(std::int64_t start,
                                                               std::int64_t size,
                                                               double* lock_wait_s) = 0;

    /// True while any queued chunk still has unassigned iterations.
    [[nodiscard]] virtual bool has_pending() = 0;

    /// True while some rank is between begin_refill() and its completion.
    [[nodiscard]] virtual bool refills_in_flight() = 0;

    /// Sub-chunks popped through this handle (per-rank statistic).
    [[nodiscard]] virtual std::int64_t popped() const noexcept = 0;

    /// The technique slicing this level's chunks.
    [[nodiscard]] virtual dls::Technique technique() const noexcept = 0;

    /// Collective teardown over the level's communicator.
    virtual void free() = 0;
};

class NodeWorkQueue final : public LevelQueue {
public:
    using SubChunk = LevelQueue::SubChunk;

    /// Collective over the level communicator (split_type(Shared) for the
    /// leaf level, a plain split for interior levels). `technique` must
    /// have a step-indexed form. `level_workers` is P in its formulas —
    /// the number of schedulable children at this level; 0 (the default)
    /// means the communicator size, the paper's leaf-level convention.
    NodeWorkQueue(const minimpi::Comm& comm, dls::Technique technique, std::int64_t min_chunk,
                  int level_workers = 0)
        : comm_(comm),
          level_workers_(level_workers > 0 ? level_workers : comm.size()),
          capacity_(comm.size() + 4) {
        if (!dls::supports_step_indexed(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "NodeWorkQueue: technique lacks a step-indexed form");
        }
        technique_ = technique;
        min_chunk_ = min_chunk;
        const std::size_t cells = kSlotBase + kSlotFields * static_cast<std::size_t>(capacity_);
        window_ = minimpi::Window::allocate_shared(
            comm, comm.rank() == 0 ? cells * sizeof(std::int64_t) : 0);
        if (comm.rank() == 0) {
            auto mem = window_.shared_span<std::int64_t>(0);
            for (auto& v : mem) {
                v = 0;
            }
            for (std::int64_t i = 0; i < capacity_; ++i) {
                mem[slot_of(i) + kClaim] = kBusy;  // no generation published yet
            }
        }
        window_.sync();
        comm_.barrier();
    }

    /// Stage 2 of the paper's protocol: claim the next step of the head
    /// chunk with one compare-and-swap (lock-free; `lock_wait_s`, when
    /// non-null, receives zero). Returns std::nullopt when no chunk
    /// currently holds unassigned work.
    [[nodiscard]] std::optional<SubChunk> try_pop(double* lock_wait_s = nullptr) override {
        if (lock_wait_s != nullptr) {
            *lock_wait_s = 0.0;
        }
        return pop();
    }

    /// Announce an in-flight refill *before* touching the parent level so
    /// peers do not terminate while a chunk is on its way.
    void begin_refill() override {
        (void)window_.fetch_add<std::int64_t>(1, kHost, kInflight);
    }

    /// The announcement as a nonblocking window op (the prefetch issue
    /// path): +1 on the in-flight counter, completed via the request.
    [[nodiscard]] minimpi::AtomicUpdateRequest<std::int64_t> begin_refill_async() override {
        return window_.start_atomic_update<std::int64_t>(
            kHost, kInflight, [](std::int64_t v) { return v + 1; });
    }

    /// Withdraw the announcement (the parent turned out to be empty).
    void end_refill() override {
        (void)window_.fetch_add<std::int64_t>(-1, kHost, kInflight);
    }

    /// Stage 1+2: append a fresh parent chunk inside one exclusive epoch
    /// (serializing pushers; `lock_wait_s` receives its grant latency),
    /// then take this rank's next sub-chunk and withdraw the in-flight
    /// announcement. Into an empty queue the chunk is published with its
    /// first step already claimed by the caller; otherwise the caller pops
    /// the head lock-free. A chunk of a single step has nothing to share
    /// and goes to the caller whole, without a push. The announcement is
    /// released on *every* exit path, including the capacity-exceeded
    /// throw — leaving it raised would keep kInflight > 0 forever and spin
    /// every peer rank in the termination protocol.
    [[nodiscard]] std::optional<SubChunk> push_and_pop(std::int64_t start, std::int64_t size,
                                                       double* lock_wait_s = nullptr) override {
        const RefillAnnouncementGuard release(*this);
        const dls::StepTable& table = slices(size);
        const std::int64_t steps = table.steps();
        if (steps <= 1) {
            if (steps == 0) {
                return pop();  // an empty chunk: nothing to append
            }
            ++popped_;
            return SubChunk{start, start + size, false};
        }
        if (steps > kStepMask) {
            throw minimpi::Error(minimpi::ErrorCode::Internal,
                                 "NodeWorkQueue: chunk has too many steps for a claim word");
        }
        lock_timed(lock_wait_s);
        std::int64_t head = read(kHead);
        const std::int64_t tail = read(kTail);
        // Retire exhausted front chunks whose last claimer has not yet
        // advanced the head, so the capacity check sees live chunks only.
        while (head < tail && exhausted(head)) {
            (void)window_.compare_and_swap<std::int64_t>(head, head + 1, kHost, kHead);
            head = read(kHead);
        }
        if (tail - head >= capacity_) {
            window_.unlock(kHost);
            throw minimpi::Error(minimpi::ErrorCode::Internal,
                                 "NodeWorkQueue: queue capacity exceeded");
        }
        const bool becomes_head = head == tail;
        const std::size_t slot = slot_of(tail);
        window_.atomic_write<std::int64_t>(kBusy, kHost, slot + kClaim);
        window_.atomic_write<std::int64_t>(start, kHost, slot + kChunkStart);
        window_.atomic_write<std::int64_t>(size, kHost, slot + kChunkSize);
        window_.atomic_write<std::int64_t>(steps, kHost, slot + kSteps);
        window_.atomic_write<std::int64_t>(claim_word(tail, becomes_head ? 1 : 0), kHost,
                                           slot + kClaim);
        window_.atomic_write<std::int64_t>(tail + 1, kHost, kTail);
        window_.unlock(kHost);
        if (!becomes_head) {
            return pop();
        }
        ++popped_;
        return SubChunk{start, start + table.at(0).size, false};
    }

    /// True while any chunk in the queue still has unclaimed steps.
    [[nodiscard]] bool has_pending() override {
        const std::int64_t tail = read(kTail);
        for (std::int64_t i = read(kHead); i < tail; ++i) {
            const std::size_t slot = slot_of(i);
            const std::int64_t claim = read(slot + kClaim);
            if (generation_matches(claim, i) && (claim & kStepMask) < read(slot + kSteps)) {
                return true;
            }
        }
        return false;
    }

    /// True while some rank is between begin_refill() and its completion.
    [[nodiscard]] bool refills_in_flight() override { return read(kInflight) > 0; }

    /// Sub-chunks popped through this handle (per-rank statistic).
    [[nodiscard]] std::int64_t popped() const noexcept override { return popped_; }

    /// The technique slicing the queued chunks.
    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Collective teardown.
    void free() override {
        comm_.barrier();
        window_.free();
    }

private:
    /// Scope guard pairing begin_refill() with end_refill() across every
    /// exit path of a refill completion (normal return and throw alike).
    class RefillAnnouncementGuard {
    public:
        explicit RefillAnnouncementGuard(NodeWorkQueue& queue) noexcept : queue_(queue) {}
        ~RefillAnnouncementGuard() { queue_.end_refill(); }
        RefillAnnouncementGuard(const RefillAnnouncementGuard&) = delete;
        RefillAnnouncementGuard& operator=(const RefillAnnouncementGuard&) = delete;

    private:
        NodeWorkQueue& queue_;
    };

    /// Exclusive lock on the host segment, optionally timing the grant.
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

    static constexpr int kHost = 0;  // group rank hosting the queue memory
    static constexpr std::size_t kHead = 0;
    static constexpr std::size_t kTail = 1;
    static constexpr std::size_t kInflight = 2;
    static constexpr std::size_t kSlotBase = 4;  // one spare cell keeps slots aligned
    static constexpr std::size_t kSlotFields = 4;
    static constexpr std::size_t kClaim = 0;
    static constexpr std::size_t kChunkStart = 1;
    static constexpr std::size_t kChunkSize = 2;
    static constexpr std::size_t kSteps = 3;

    /// Claim word: generation (queue index, modulo 2^27) above a 36-bit
    /// step. The generation only has to tell a slot's laps apart while a
    /// popper sits between its reads and its CAS. kBusy (negative) marks a
    /// slot being rewritten by a pusher.
    static constexpr int kStepBits = 36;
    static constexpr std::int64_t kStepMask = (std::int64_t{1} << kStepBits) - 1;
    static constexpr std::int64_t kGenMask = (std::int64_t{1} << 27) - 1;
    static constexpr std::int64_t kBusy = -1;

    [[nodiscard]] static constexpr std::int64_t claim_word(std::int64_t index,
                                                           std::int64_t step) noexcept {
        return ((index & kGenMask) << kStepBits) | step;
    }

    [[nodiscard]] static constexpr bool generation_matches(std::int64_t claim,
                                                           std::int64_t index) noexcept {
        return claim != kBusy && (claim >> kStepBits) == (index & kGenMask);
    }

    [[nodiscard]] std::size_t slot_of(std::int64_t index) const noexcept {
        return kSlotBase + kSlotFields * static_cast<std::size_t>(index % capacity_);
    }

    [[nodiscard]] std::int64_t read(std::size_t cell) const {
        return window_.atomic_read<std::int64_t>(kHost, cell);
    }

    /// True when the chunk at queue index `index` has no unclaimed step.
    [[nodiscard]] bool exhausted(std::int64_t index) const {
        const std::size_t slot = slot_of(index);
        const std::int64_t claim = read(slot + kClaim);
        return generation_matches(claim, index) && (claim & kStepMask) >= read(slot + kSteps);
    }

    /// This level's step table for a chunk of `size` iterations; the last
    /// one is cached (consecutive pops mostly slice the same chunk).
    const dls::StepTable& slices(std::int64_t size) {
        if (!slices_ || slices_size_ != size) {
            dls::LoopParams p;
            p.total_iterations = size;
            p.workers = level_workers_;
            p.min_chunk = min_chunk_;
            slices_.emplace(technique_, p);
            slices_size_ = size;
        }
        return *slices_;
    }

    /// Claims the next step of the head chunk. The fields are read before
    /// the CAS; its success proves they belong to the claimed generation
    /// (a pusher flips the claim word to kBusy before rewriting a slot).
    [[nodiscard]] std::optional<SubChunk> pop() {
        for (;;) {
            const std::int64_t head = read(kHead);
            const std::size_t slot = slot_of(head);
            const std::int64_t claim = read(slot + kClaim);
            if (!generation_matches(claim, head)) {
                // Either nothing is published at the head (the queue is
                // empty) or the slot was retired and reused (the head
                // moved on): the tail tells the two apart.
                if (head >= read(kTail)) {
                    return std::nullopt;
                }
                continue;
            }
            const std::int64_t step = claim & kStepMask;
            const std::int64_t start = read(slot + kChunkStart);
            const std::int64_t size = read(slot + kChunkSize);
            const std::int64_t steps = read(slot + kSteps);
            if (step >= steps) {
                // Chunk fully claimed: retire it (a no-op if a peer did).
                (void)window_.compare_and_swap<std::int64_t>(head, head + 1, kHost, kHead);
                continue;
            }
            if (window_.compare_and_swap<std::int64_t>(claim, claim + 1, kHost,
                                                       slot + kClaim) != claim) {
                metrics::rt().window_cas_retries->inc();
                continue;
            }
            if (step + 1 == steps) {
                (void)window_.compare_and_swap<std::int64_t>(head, head + 1, kHost, kHead);
            }
            ++popped_;
            const dls::StepRange range = slices(size).at(step);
            return SubChunk{start + range.start, start + range.start + range.size, false};
        }
    }

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::Technique technique_{};
    std::int64_t min_chunk_ = 1;
    int level_workers_ = 0;
    std::int64_t capacity_ = 0;
    std::int64_t popped_ = 0;
    std::optional<dls::StepTable> slices_;
    std::int64_t slices_size_ = 0;
};

}  // namespace hdls::core
