/// \file comm.cpp
/// Collective algorithms, communicator management and liveness calls.

#include "minimpi/comm.hpp"

#include <algorithm>
#include <cstring>

#include "util/rng.hpp"

namespace minimpi {

namespace {

/// Deterministic derivation of a child communicator id: every member mixes
/// the same (parent id, per-rank split sequence, color) triple, so the whole
/// group agrees on the id without any coordination messages.
[[nodiscard]] std::uint64_t derive_comm_id(std::uint64_t parent, std::uint64_t seq,
                                           std::uint64_t color) {
    using hdls::util::mix64;
    return mix64(parent ^ mix64(seq ^ 0x636f6d6dULL) ^ mix64(color + 0x1234567ULL));
}

struct SplitEntry {
    int color;
    int key;
    int old_rank;
};

}  // namespace

// ------------------------------------------------------------- validation --

void Comm::require_valid() const {
    if (!valid()) {
        throw Error(ErrorCode::InvalidArgument, "minimpi: operation on an invalid communicator");
    }
}

int Comm::world_rank_of(int comm_rank) const {
    require_valid();
    if (comm_rank < 0 || comm_rank >= size()) {
        throw Error(ErrorCode::InvalidRank, "minimpi: comm rank out of range");
    }
    return meta_->members[static_cast<std::size_t>(comm_rank)];
}

int Comm::node_of(int comm_rank) const {
    return state_->topology.node_of(world_rank_of(comm_rank));
}

// --------------------------------------------------------------- liveness --

void Comm::beat() const {
    require_valid();
    state_->transport->beat(world_rank_of(rank_));
}

std::uint64_t Comm::heartbeat_of(int comm_rank) const {
    require_valid();
    return state_->transport->heartbeat(world_rank_of(comm_rank));
}

void Comm::mark_dead(int comm_rank) const {
    require_valid();
    state_->transport->mark_dead(world_rank_of(comm_rank));
}

bool Comm::is_dead(int comm_rank) const {
    require_valid();
    return state_->transport->is_dead(world_rank_of(comm_rank));
}

int Comm::alive() const {
    require_valid();
    int live = 0;
    for (int r = 0; r < size(); ++r) {
        live += is_dead(r) ? 0 : 1;
    }
    return live;
}

// ----------------------------------------------------- collective plumbing --

void Comm::coll_send(const void* data, std::size_t bytes, int dst, int phase,
                     std::uint64_t cseq) const {
    state_->check_abort();
    detail::Envelope e;
    e.key = {meta_->id, rank_, phase, cseq};
    e.payload.resize(bytes);
    if (bytes > 0) {
        std::memcpy(e.payload.data(), data, bytes);
    }
    const int world_dst = meta_->members[static_cast<std::size_t>(dst)];
    state_->mailbox(world_dst).push(std::move(e), state_->abort);
}

void Comm::coll_recv(void* data, std::size_t max_bytes, int src, int phase,
                     std::uint64_t cseq) const {
    const int my_world = meta_->members[static_cast<std::size_t>(rank_)];
    detail::Envelope e =
        state_->mailbox(my_world).match({meta_->id, src, phase, cseq}, state_->abort);
    if (e.payload.size() > max_bytes) {
        throw Error(ErrorCode::Internal, "minimpi: collective buffer mismatch");
    }
    if (!e.payload.empty()) {
        std::memcpy(data, e.payload.data(), e.payload.size());
    }
}

// -------------------------------------------------------------- collectives --

void Comm::barrier() const {
    require_valid();
    const std::uint64_t cseq = ++counters_->collective_seq;
    const int p = size();
    if (p == 1) {
        return;
    }
    // Dissemination barrier: ceil(log2(P)) rounds; eager sends keep it
    // deadlock-free without pairing send/recv.
    const std::byte token{0};
    int phase = 0;
    for (int dist = 1; dist < p; dist <<= 1, ++phase) {
        const int dst = (rank_ + dist) % p;
        const int src = (rank_ - dist % p + p) % p;
        coll_send(&token, 1, dst, phase, cseq);
        std::byte sink{};
        coll_recv(&sink, 1, src, phase, cseq);
    }
}

void Comm::bcast_bytes(void* data, std::size_t bytes) const {
    require_valid();
    const std::uint64_t cseq = ++counters_->collective_seq;
    const int p = size();
    // Binomial tree from rank 0 (MPICH-style): receive from the parent,
    // then forward to the children below the lowest set bit.
    int mask = 1;
    while (mask < p) {
        if ((rank_ & mask) != 0) {
            coll_recv(data, bytes, rank_ - mask, 0, cseq);
            break;
        }
        mask <<= 1;
    }
    for (mask >>= 1; mask > 0; mask >>= 1) {
        if (rank_ + mask < p) {
            coll_send(data, bytes, rank_ + mask, 0, cseq);
        }
    }
}

void Comm::gather_bytes(const void* in, std::size_t in_bytes, void* out) const {
    require_valid();
    const std::uint64_t cseq = ++counters_->collective_seq;
    if (rank_ != 0) {
        coll_send(in, in_bytes, 0, 0, cseq);
        return;
    }
    auto* dst = static_cast<std::byte*>(out);
    if (in_bytes > 0) {
        std::memcpy(dst, in, in_bytes);
    }
    for (int r = 1; r < size(); ++r) {
        coll_recv(dst + static_cast<std::size_t>(r) * in_bytes, in_bytes, r, 0, cseq);
    }
}

void Comm::allgather_bytes(const void* in, std::size_t in_bytes, void* out) const {
    gather_bytes(in, in_bytes, out);
    bcast_bytes(out, in_bytes * static_cast<std::size_t>(size()));
}

// --------------------------------------------------------- comm management --

Comm Comm::split(int color, int key) const {
    require_valid();
    const std::uint64_t seq = ++counters_->split_seq;
    // Exchange (color, key, old rank) among all members; every rank then
    // derives its group deterministically — no leader required.
    const std::vector<SplitEntry> entries = allgather(SplitEntry{color, key, rank_});
    if (color < 0) {
        return Comm();  // MPI_UNDEFINED -> MPI_COMM_NULL
    }
    std::vector<SplitEntry> group;
    for (const auto& e : entries) {
        if (e.color == color) {
            group.push_back(e);
        }
    }
    std::sort(group.begin(), group.end(), [](const SplitEntry& a, const SplitEntry& b) {
        return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
    });
    auto meta = std::make_shared<detail::CommMeta>();
    meta->id = derive_comm_id(meta_->id, seq, static_cast<std::uint64_t>(color));
    meta->members.reserve(group.size());
    int my_new_rank = -1;
    for (std::size_t i = 0; i < group.size(); ++i) {
        meta->members.push_back(meta_->members[static_cast<std::size_t>(group[i].old_rank)]);
        if (group[i].old_rank == rank_) {
            my_new_rank = static_cast<int>(i);
        }
    }
    return Comm(state_, std::move(meta), my_new_rank);
}

Comm Comm::split_type(SplitType type, int key) const {
    require_valid();
    switch (type) {
        case SplitType::Shared:
            return split(node_of(rank_), key);
    }
    throw Error(ErrorCode::InvalidArgument, "minimpi: unknown SplitType");
}

}  // namespace minimpi
