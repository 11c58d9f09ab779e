#pragma once
/// \file lease_board.hpp
/// Lease-based chunk ownership with exactly-once reclamation — the fault
/// tolerance layer of the MPI+MPI executor (docs/fault-tolerance.md).
///
/// Every chunk a rank acquires is *leased* on a shared RMA window before
/// execution: a lease record (chunk bounds + a wall-clock deadline derived
/// from the owner's chunk-time EMA) written into one of the owner's board
/// slots. A rank whose transport heartbeat word goes stale past the
/// failure-detector timeout (minimpi::FailureDetector) is declared dead;
/// survivors then *reclaim* its expired leases and re-execute the chunks,
/// with a CAS protocol guaranteeing each lost chunk is re-executed by
/// exactly one survivor and each chunk's results are *committed* exactly
/// once even if a falsely-suspected owner finishes late.
///
/// Per-rank board layout (the rank's window segment): `slots` slots of
/// four std::int64_t cells each —
///
///   cell 0  state word: state in the low 2 bits, generation above
///   cell 1  chunk start
///   cell 2  chunk size
///   cell 3  lease deadline (steady-clock nanoseconds)
///
/// The slot state machine (gen = g throughout one occupancy; the
/// generation bumps only on FREE -> ACTIVE, so a recycled slot can never
/// satisfy a stale CAS — the ABA guard):
///
///   FREE(g)      --owner writes start/size/deadline, CAS-->  ACTIVE(g+1)
///   ACTIVE(g)    --owner completion fence, CAS-->            FREE(g)
///   ACTIVE(g)    --sweeper: owner dead && now > deadline-->  RECLAIMED(g)
///   RECLAIMED(g) --claimer (single CAS winner)-->            FREE(g)
///
/// Exactly-once rests on two CAS races with single winners:
///  * the *completion fence*: an owner commits its chunk only if
///    CAS ACTIVE(g) -> FREE(g) succeeds. A sweeper that already moved the
///    slot to RECLAIMED(g) wins the race instead, the owner observes the
///    loss and discards the execution (uncommitted) — a slow-but-alive
///    owner can therefore double-*execute* but never double-*commit*;
///  * the *claim*: survivors race CAS RECLAIMED(g) -> FREE(g); the single
///    winner re-leases the chunk into its own board and executes it.
///
/// Only the owner transitions its own FREE slots, so lease() needs no
/// cross-rank coordination; start/size/deadline are written before the
/// FREE -> ACTIVE CAS publishes them (acq_rel on every window atomic), so
/// any rank that observes ACTIVE or RECLAIMED observes the bounds too.
///
/// The board is transport-agnostic: it speaks only Window atomics, so the
/// same protocol runs over the threads and shm substrates.

#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace hdls::core {

class LeaseBoard {
public:
    /// A chunk reclaimed from a dead owner, ready for re-execution.
    struct Reclaimed {
        std::int64_t start = 0;
        std::int64_t size = 0;
    };

    /// Collective over `comm` (one board segment per rank). `k` is the
    /// deadline multiplier: deadline = now + max(k x chunk-time EMA, a
    /// 100 ms floor). `slots` bounds the rank's concurrently outstanding
    /// leases (the current chunk uses one; 8 leaves headroom).
    LeaseBoard(const minimpi::Comm& comm, double k, int slots = 8);

    LeaseBoard(const LeaseBoard&) = delete;
    LeaseBoard& operator=(const LeaseBoard&) = delete;

    /// Leases [start, start + size) into one of the calling rank's free
    /// slots before execution. Throws minimpi::Error(Resource) if every
    /// slot is occupied (more outstanding chunks than `slots` — an
    /// executor bug, not a runtime condition).
    void lease(std::int64_t start, std::int64_t size);

    /// The completion fence: commits the lease acquired for `start`.
    /// Returns true when the CAS ACTIVE(g) -> FREE(g) won — the execution
    /// counts. Returns false when a sweeper reclaimed the lease first (the
    /// owner was suspected dead): the caller must treat the execution as
    /// uncommitted; the reclaiming survivor owns the chunk now. Unknown
    /// `start` (never leased through this handle) returns true.
    [[nodiscard]] bool complete(std::int64_t start);

    /// One detection round over *dead* ranks' boards: moves every ACTIVE
    /// lease of a dead owner whose deadline has passed to RECLAIMED.
    /// Returns the number of leases newly reclaimed by this call.
    int sweep();

    /// Claims one RECLAIMED lease anywhere on the board (single CAS
    /// winner across all survivors). The caller re-leases and re-executes
    /// the returned chunk. std::nullopt when nothing is claimable.
    [[nodiscard]] std::optional<Reclaimed> claim_one();

    /// True when every slot of every rank is FREE — no lease outstanding
    /// anywhere, i.e. every acquired chunk was committed exactly once.
    /// The executor's drain loop spins on this (sweeping and claiming)
    /// until the board settles.
    [[nodiscard]] bool quiescent() const;

    /// Fail-stop: forgets every outstanding local lease WITHOUT touching
    /// the window — the slots stay ACTIVE for survivors to reclaim. The
    /// chaos seam (HDLS_CHAOS) calls this when killing a rank.
    void abandon_all() noexcept;

    /// Outstanding leases of this handle (telemetry/tests).
    [[nodiscard]] int outstanding() const noexcept {
        return static_cast<int>(records_.size());
    }

    /// The chunk-time EMA feeding the deadline (0 before the first
    /// completion).
    [[nodiscard]] double ema_seconds() const noexcept { return ema_seconds_; }

    /// Slots per rank (layout introspection for tests).
    [[nodiscard]] int slots() const noexcept { return slots_; }

    /// Collective teardown.
    void free();

private:
    static constexpr std::size_t kState = 0;
    static constexpr std::size_t kStart = 1;
    static constexpr std::size_t kSize = 2;
    static constexpr std::size_t kDeadline = 3;
    static constexpr std::size_t kSlotCells = 4;

    static constexpr std::int64_t kFree = 0;
    static constexpr std::int64_t kActive = 1;
    static constexpr std::int64_t kReclaimed = 2;

    [[nodiscard]] static constexpr std::int64_t pack(std::int64_t state,
                                                     std::int64_t gen) noexcept {
        return state | (gen << 2);
    }
    [[nodiscard]] static constexpr std::int64_t state_of(std::int64_t word) noexcept {
        return word & 3;
    }
    [[nodiscard]] static constexpr std::int64_t gen_of(std::int64_t word) noexcept {
        return word >> 2;
    }

    [[nodiscard]] std::size_t cell(int slot, std::size_t c) const noexcept {
        return static_cast<std::size_t>(slot) * kSlotCells + c;
    }

    [[nodiscard]] static std::int64_t now_ns() noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /// deadline = now + max(k x EMA, the 100 ms floor). The floor keeps
    /// deadlines meaningful before the first completion seeds the EMA and
    /// under microsecond chunk bodies; reclamation additionally requires
    /// the owner to be *declared dead*, so a short deadline alone never
    /// reclaims a live owner's lease.
    [[nodiscard]] std::int64_t deadline_ns() const noexcept;

    struct Record {
        int slot = -1;
        std::int64_t gen = 0;
        std::chrono::steady_clock::time_point acquired{};
    };

    minimpi::Comm comm_;
    minimpi::Window window_;
    double k_ = 8.0;
    int slots_ = 8;
    double ema_seconds_ = 0.0;
    /// Outstanding local leases, keyed by chunk start (starts are unique
    /// within a run: the hierarchy tiles [0, N) exactly).
    std::unordered_map<std::int64_t, Record> records_;
    /// Own-slot occupancy as *this handle* sees it; a slot is reusable
    /// only once its window state returns to FREE (a reclaimed slot stays
    /// unavailable until the claimer's CAS releases it).
    std::vector<char> in_use_;
};

}  // namespace hdls::core
