#pragma once
/// \file mailbox.hpp
/// Internal: the per-rank message queue that carries minimpi's collective
/// lane (barrier, the bcast/gather steps of allgather, window set-up). The
/// scheduler itself is one-sided; this lane exists for communicator and
/// window set-up only. Each Transport supplies its own implementation (see
/// transport.hpp): the thread transport a mutex+condvar deque, the shm
/// transport a lock-word slot table inside the shared segment.
///
/// Sends are *eager*: the payload is copied into the destination mailbox
/// and push returns as soon as the envelope is enqueued (a transport with
/// bounded buffering may block the sender until a slot frees). A receive
/// takes the envelope whose key (comm id, source, phase, collective
/// sequence) equals the one it asks for. Every collective message has a
/// distinct key, so a fast rank's message for the next collective can
/// never be mistaken for one of the current collective.
///
/// Abort contract: both potentially blocking entry points (push under
/// backpressure, match) take the runtime's abort flag and must observe it
/// in bounded time, throwing ErrorCode::Aborted — a failing peer rank may
/// never produce the message a receiver is parked on.
///
/// Not part of the public API.

#include <atomic>
#include <cstdint>
#include <vector>

#include "minimpi/types.hpp"

namespace minimpi::detail {

/// Identity of one collective message: `phase` separates the rounds of one
/// collective, `cseq` successive collectives on the same communicator.
struct EnvelopeKey {
    std::uint64_t comm_id = 0;
    int src = 0;  ///< comm rank of the sender
    int phase = 0;
    std::uint64_t cseq = 0;

    friend bool operator==(const EnvelopeKey&, const EnvelopeKey&) = default;
};

/// A message in flight.
struct Envelope {
    EnvelopeKey key;
    std::vector<std::byte> payload;
};

/// One mailbox per world rank; all communicators share it (keys carry the
/// communicator id).
class Mailbox {
public:
    virtual ~Mailbox() = default;

    /// Eager enqueue. A bounded-buffer transport may block until a slot
    /// frees; it must then poll `abort` and throw ErrorCode::Aborted
    /// rather than wait on a dead peer.
    virtual void push(Envelope e, const std::atomic<bool>& abort) = 0;

    /// Blocking pop of the envelope with this key. Polls the abort flag so
    /// a failing rank elsewhere unblocks this one instead of deadlocking
    /// the process.
    virtual Envelope match(const EnvelopeKey& key, const std::atomic<bool>& abort) = 0;

    /// Wakes blocked receivers so they can observe the abort flag (a no-op
    /// for transports whose waits are polled).
    virtual void interrupt() = 0;
};

}  // namespace minimpi::detail
