#pragma once
/// \file state.hpp
/// Internal: process-wide state shared by all rank threads of one
/// Runtime::run invocation. Not part of the public API.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "minimpi/mailbox.hpp"
#include "minimpi/topology.hpp"
#include "minimpi/transport.hpp"

namespace minimpi::detail {

class WindowImpl;  // defined in window.cpp

struct RuntimeState {
    int world_size = 0;
    Topology topology;

    /// The substrate carrying this run: mailboxes, window storage, abort
    /// propagation. Owned here; rank threads only hold references.
    std::unique_ptr<Transport> transport;

    [[nodiscard]] Mailbox& mailbox(int world_rank) noexcept {
        return transport->mailbox(world_rank);
    }

    /// Set when any rank throws; blocking operations poll it and bail out
    /// with ErrorCode::Aborted so the whole team unwinds instead of hanging.
    std::atomic<bool> abort{false};

    /// Window registry: allocate_shared creates the impl on the lowest rank
    /// and peers attach by id after a broadcast.
    std::atomic<std::uint64_t> next_window_id{1};
    std::mutex window_mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<WindowImpl>> windows;

    void interrupt_all() {
        if (transport) {
            transport->signal_abort();
        }
    }

    void check_abort() const {
        if (abort.load(std::memory_order_acquire)) {
            throw Error(ErrorCode::Aborted, "minimpi: runtime aborting (peer rank failed)");
        }
    }
};

/// Per-rank, per-communicator bookkeeping shared between copies of a Comm
/// handle held by the same rank (collective call sequence, split counter).
struct CommCounters {
    std::uint64_t collective_seq = 0;
    std::uint64_t split_seq = 0;
};

/// Immutable description of a communicator's group, shared by the rank's
/// Comm copies. Every member derives an identical `id` deterministically,
/// so envelopes route without any central registration.
struct CommMeta {
    std::uint64_t id = 0;
    std::vector<int> members;  // comm rank -> world rank
};

}  // namespace minimpi::detail
