#pragma once
/// \file runtime.hpp
/// Launching a "cluster": Runtime::run spawns one thread per rank and gives
/// each a Context. This replaces `mpirun -np N` for the thread-backed
/// substrate; Topology plays the role of the host file / rank mapping.

#include <functional>

#include "minimpi/comm.hpp"
#include "minimpi/topology.hpp"
#include "minimpi/transport.hpp"

namespace minimpi {

/// Per-rank execution context handed to the rank function.
class Context {
public:
    /// World communicator (all ranks).
    [[nodiscard]] const Comm& world() const noexcept { return world_; }

    [[nodiscard]] int rank() const noexcept { return world_.rank(); }
    [[nodiscard]] int size() const noexcept { return world_.size(); }

    [[nodiscard]] const Topology& topology() const noexcept { return state_->topology; }

    /// Simulated compute node hosting this rank.
    [[nodiscard]] int node() const noexcept { return state_->topology.node_of(rank()); }

    /// Number of simulated compute nodes in this run.
    [[nodiscard]] int nodes() const noexcept { return state_->topology.nodes_for(size()); }

    /// Which substrate carries this run (threads or shm).
    [[nodiscard]] TransportKind transport() const noexcept { return state_->transport->kind(); }

private:
    friend class Runtime;
    Context(detail::RuntimeState* state, Comm world) : state_(state), world_(std::move(world)) {}

    detail::RuntimeState* state_;
    Comm world_;
};

/// Entry point of the thread-backed MPI runtime.
class Runtime {
public:
    /// Runs `fn` on `world_size` rank threads under the given topology and
    /// joins them. If any rank throws, the runtime aborts the others
    /// (blocking calls fail with ErrorCode::Aborted) and rethrows the first
    /// *primary* exception in the caller's thread.
    ///
    /// The communication substrate is chosen by the HDLS_TRANSPORT knob
    /// (core::read_env; default: threads); a malformed value throws
    /// std::invalid_argument before any rank is launched.
    static void run(int world_size, const Topology& topology,
                    const std::function<void(Context&)>& fn);

    /// Single-node convenience overload (all ranks share one node).
    static void run(int world_size, const std::function<void(Context&)>& fn);

    /// Explicit-transport overloads: run on the given substrate regardless
    /// of the environment.
    static void run(int world_size, const Topology& topology, TransportKind transport,
                    const std::function<void(Context&)>& fn);
    static void run(int world_size, TransportKind transport,
                    const std::function<void(Context&)>& fn);
};

}  // namespace minimpi
