#pragma once
/// \file types.hpp
/// Common types, constants and errors of the minimpi runtime.
///
/// minimpi implements the MPI-3 subset the paper's MPI+MPI scheduler
/// calls, and nothing more. The scheduling protocol is one-sided: the
/// global queue is one fetch-and-op on a window, the node queue is a
/// shared-memory window (MPI_Win_allocate_shared) claimed by
/// compare-and-swap and passive-target epochs. Only communicator setup is
/// collective: barrier, allgather and the communicator splits (including
/// the shared-memory split of MPI_Comm_split_type), which ride on a
/// runtime-internal message lane. There is no user-visible two-sided
/// messaging. Ranks are threads inside one process; a Topology assigns
/// ranks to simulated "compute nodes" so that node-level splitting behaves
/// like MPI_COMM_TYPE_SHARED on a real cluster.
///
/// The public API keeps MPI *semantics* (exclusive/shared passive-target
/// locks, element-wise atomicity of the window atomics, collective call
/// order) with an idiomatic C++ surface (RAII, spans, enums, exceptions
/// instead of error codes).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace minimpi {

/// Error categories (loosely mirrors the MPI error classes we can hit).
enum class ErrorCode {
    InvalidRank,
    InvalidArgument,
    WindowUsage,  ///< bad window rank/offset/alignment
    Aborted,      ///< another rank terminated with an exception
    Resource,     ///< transport resource exhausted (shm segment, slot capacity)
    Internal,
};

/// Exception thrown by all minimpi operations on failure.
class Error : public std::runtime_error {
public:
    Error(ErrorCode code, const std::string& what) : std::runtime_error(what), code_(code) {}
    [[nodiscard]] ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// Comm::split_type selector (subset of MPI_COMM_TYPE_*).
enum class SplitType {
    Shared,  ///< ranks that share a simulated compute node (MPI_COMM_TYPE_SHARED)
};

/// Passive-target lock type (MPI_LOCK_EXCLUSIVE / MPI_LOCK_SHARED).
enum class LockType { Exclusive, Shared };

/// Only trivially copyable types travel through collectives and windows.
template <typename T>
concept Pod = std::is_trivially_copyable_v<T>;

}  // namespace minimpi
