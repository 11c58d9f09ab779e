#pragma once
/// \file transport.hpp
/// Pluggable communication substrate of the minimpi runtime.
///
/// Runtime/Comm/Window are written against this seam; which machinery
/// actually carries the bytes is a launch-time choice (the HDLS_TRANSPORT
/// knob or an explicit Runtime::run overload):
///
///  * TransportKind::Threads — the historical in-process substrate: heap
///    collective mailboxes guarded by mutex+condvar, window segments in an
///    aligned heap buffer, passive-target epochs on atomic lock words.
///  * TransportKind::Shm — the paper's MPI_Win_allocate_shared model: one
///    POSIX shared-memory segment (shm_open + mmap) holds every mailbox
///    and every window, synchronized exclusively through lock words and
///    atomics *inside* the segment. The layout is process-independent —
///    fixed-size slot tables, byte offsets instead of pointers — so the
///    data plane is exactly what a multi-process MPI+MPI run uses; rank
///    launch itself stays thread-based (results and traces are collected
///    in-process; see README "Transports").
///
/// Whatever the transport, the seam must carry the semantics the
/// scheduling core relies on:
///  * passive-target epochs + element-wise atomics + request-based
///    nonblocking CAS (WindowStorage and the Window built on it) — the
///    whole scheduling protocol;
///  * the collective lane behind barrier/allgather/split and window
///    set-up: eager sends matched by (comm, source, phase, sequence) key
///    (Mailbox);
///  * abort propagation: every blocking primitive observes a peer failure
///    in bounded time and throws ErrorCode::Aborted (mailbox waits poll
///    the runtime flag, window lock acquisition polls it between attempts).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "minimpi/mailbox.hpp"
#include "minimpi/types.hpp"

namespace minimpi {

/// Which substrate carries a Runtime::run invocation.
enum class TransportKind {
    Threads,  ///< in-process heap mailboxes + mutex-backed windows (default)
    Shm,      ///< one POSIX shm segment: lock-word mailboxes + windows
};

[[nodiscard]] constexpr const char* transport_name(TransportKind kind) noexcept {
    switch (kind) {
        case TransportKind::Threads:
            return "threads";
        case TransportKind::Shm:
            return "shm";
    }
    return "?";
}

/// Parses a canonical name ("threads" | "shm"); std::nullopt if unknown.
[[nodiscard]] std::optional<TransportKind> transport_from_string(std::string_view name) noexcept;

namespace detail {

/// Backing store + passive-target lock table of one window, owned by the
/// transport. `base()` is 64-byte aligned; segment offsets are computed by
/// the caller (Window::allocate_shared pads every segment to 64 bytes, so
/// each rank's segment starts on its own cache line — the property the
/// sharded queue's padded cells rely on).
class WindowStorage {
public:
    virtual ~WindowStorage() = default;

    [[nodiscard]] virtual std::byte* base() noexcept = 0;

    /// One non-blocking epoch-acquisition attempt on `rank`'s lock.
    [[nodiscard]] virtual bool try_lock(int rank, LockType type) noexcept = 0;

    virtual void unlock(int rank, LockType type) noexcept = 0;
};

/// One Transport instance backs one Runtime::run invocation; all rank
/// threads share it. Implementations live in transport_threads.* and
/// transport_shm.*.
class Transport {
public:
    virtual ~Transport() = default;

    [[nodiscard]] virtual TransportKind kind() const noexcept = 0;

    /// The destination queue of a world rank.
    [[nodiscard]] virtual Mailbox& mailbox(int world_rank) noexcept = 0;

    /// Backing store + lock table for one window spanning `total_bytes`
    /// (the sum of all 64-byte-padded segments). Called once per window by
    /// the allocating rank; every rank's handle shares the result.
    [[nodiscard]] virtual std::unique_ptr<WindowStorage> allocate_window(
        std::size_t total_bytes, int ranks) = 0;

    /// Propagates a rank failure into the substrate: wakes blocked
    /// receivers and raises the transport-level abort word (the shm
    /// transport keeps one in the segment's control block, where a peer
    /// *process* mapping the segment would observe it too). The runtime
    /// flag itself (RuntimeState::abort) is set by the caller first.
    virtual void signal_abort() noexcept = 0;

    // ------------------------------------------------------- liveness ----
    // Per-rank liveness words backing lease-based fault tolerance
    // (docs/fault-tolerance.md): a monotonic heartbeat counter each rank
    // bumps at chunk boundaries, and a sticky dead set the failure
    // detector raises once a counter stops moving. On the shm transport
    // both live inside the segment (one cache line per rank, next to the
    // control block), where a peer *process* mapping the segment would
    // observe them too; the thread transport keeps padded heap atomics.

    /// Bumps `world_rank`'s heartbeat counter (relaxed fetch_add).
    virtual void beat(int world_rank) noexcept = 0;

    /// Reads `world_rank`'s heartbeat counter.
    [[nodiscard]] virtual std::uint64_t heartbeat(int world_rank) noexcept = 0;

    /// Declares `world_rank` dead. Sticky: a rank once marked stays dead
    /// for the remainder of the run (there is no resurrection protocol —
    /// a late completion by a falsely-suspected rank is fenced off at the
    /// lease layer instead).
    virtual void mark_dead(int world_rank) noexcept = 0;

    [[nodiscard]] virtual bool is_dead(int world_rank) noexcept = 0;
};

[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind, int world_size);

}  // namespace detail

}  // namespace minimpi
