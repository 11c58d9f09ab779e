#pragma once
/// \file comm.hpp
/// Communicators: the collective set-up the one-sided scheduler needs
/// (barrier, allgather, split, split_type) plus the per-rank liveness
/// words behind lease-based fault tolerance.
///
/// The scheduling protocol itself sends no message: chunks are claimed
/// through Window atomics and epochs. Collectives exist only to build
/// communicators and windows and to line ranks up between phases, so this
/// header offers no point-to-point messaging, requests, reductions or
/// scatter. Collectives run on a runtime-internal message lane (see
/// mailbox.hpp), keyed by a per-communicator collective sequence number.
///
/// A Comm is a cheap value handle. Copies held by the *same* rank share
/// their collective-sequence bookkeeping; using one communicator from two
/// threads of the same rank is undefined (as in MPI without THREAD_MULTIPLE).

#include <memory>
#include <vector>

#include "minimpi/state.hpp"
#include "minimpi/topology.hpp"
#include "minimpi/types.hpp"

namespace minimpi {

/// An ordered group of ranks with its own collective context.
class Comm {
public:
    /// Default-constructed handles are invalid; obtain real ones from
    /// Context::world(), split() or split_type().
    Comm() = default;

    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] int size() const noexcept {
        return meta_ ? static_cast<int>(meta_->members.size()) : 0;
    }

    /// World rank backing a rank of this communicator.
    [[nodiscard]] int world_rank_of(int comm_rank) const;

    // ------------------------------------------------------ collectives ----
    // All ranks of the communicator must call collectives in the same order
    // (standard MPI requirement); the implementation relies on it to pair
    // messages of concurrent collectives via a per-comm sequence number.

    void barrier() const;

    /// MPI_Allgather of one value per rank: every rank receives the
    /// vector of all contributions in rank order.
    template <Pod T>
    [[nodiscard]] std::vector<T> allgather(const T& value) const {
        std::vector<T> out(static_cast<std::size_t>(size()));
        allgather_bytes(&value, sizeof(T), out.data());
        return out;
    }

    // ------------------------------------------------ comm management ----

    /// MPI_Comm_split: ranks with equal `color` form a new communicator,
    /// ordered by (key, old rank). color < 0 means "not participating"
    /// (returns an invalid Comm, like MPI_COMM_NULL).
    [[nodiscard]] Comm split(int color, int key) const;

    /// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one communicator per
    /// simulated compute node.
    [[nodiscard]] Comm split_type(SplitType type, int key) const;

    /// Node id (in the runtime topology) hosting a rank of this comm.
    [[nodiscard]] int node_of(int comm_rank) const;

    // ------------------------------------------------------- liveness ----
    // Per-rank heartbeat words and the sticky dead set, owned by the
    // transport (see transport.hpp). These back lease-based fault
    // tolerance (core::LeaseBoard, docs/fault-tolerance.md): workers bump
    // their own word at chunk boundaries, a failure detector declares a
    // rank whose word stops moving dead, and the lease layer reclaims the
    // dead rank's unfinished chunks. Ranks are *this communicator's* ranks
    // (translated to world ranks internally).

    /// Bumps this rank's heartbeat counter.
    void beat() const;

    /// Reads a member's heartbeat counter.
    [[nodiscard]] std::uint64_t heartbeat_of(int comm_rank) const;

    /// Declares a member dead (sticky for the rest of the run).
    void mark_dead(int comm_rank) const;

    [[nodiscard]] bool is_dead(int comm_rank) const;

    /// Members not marked dead.
    [[nodiscard]] int alive() const;

    /// Polls the runtime abort flag and throws ErrorCode::Aborted when a
    /// peer failed — the check every lease-layer wait loop interleaves so
    /// it can never outlive an aborting team.
    void poll_abort() const { require_valid(); state_->check_abort(); }

private:
    friend class Runtime;
    friend class Window;

    Comm(detail::RuntimeState* state, std::shared_ptr<const detail::CommMeta> meta,
         int my_rank)
        : state_(state),
          meta_(std::move(meta)),
          counters_(std::make_shared<detail::CommCounters>()),
          rank_(my_rank) {}

    void require_valid() const;

    // Collective-lane internals (implemented in comm.cpp). bcast and gather
    // are rooted at rank 0: allgather and Window::allocate_shared are their
    // only callers.
    void bcast_bytes(void* data, std::size_t bytes) const;
    void gather_bytes(const void* in, std::size_t in_bytes, void* out) const;
    void allgather_bytes(const void* in, std::size_t in_bytes, void* out) const;

    void coll_send(const void* data, std::size_t bytes, int dst, int phase,
                   std::uint64_t cseq) const;
    void coll_recv(void* data, std::size_t max_bytes, int src, int phase,
                   std::uint64_t cseq) const;

    detail::RuntimeState* state_ = nullptr;
    std::shared_ptr<const detail::CommMeta> meta_;
    std::shared_ptr<detail::CommCounters> counters_;
    int rank_ = -1;
};

}  // namespace minimpi
