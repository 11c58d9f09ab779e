#pragma once
/// \file minimpi.hpp
/// Umbrella header for the thread-backed runtime implementing the MPI-3
/// subset the one-sided scheduler calls (see types.hpp).
///
/// Quick tour:
///   minimpi::Runtime::run(32, {.ranks_per_node = 16}, [](minimpi::Context& ctx) {
///       auto world = ctx.world();                       // MPI_COMM_WORLD
///       auto node  = world.split_type(minimpi::SplitType::Shared, world.rank());
///       auto win   = minimpi::Window::allocate_shared(node, 2 * sizeof(std::int64_t));
///       auto step  = win.fetch_add<std::int64_t>(1, 0, 0);  // MPI_Fetch_and_op(MPI_SUM)
///       ...
///   });

#include "minimpi/backoff.hpp"   // IWYU pragma: export
#include "minimpi/comm.hpp"      // IWYU pragma: export
#include "minimpi/runtime.hpp"   // IWYU pragma: export
#include "minimpi/topology.hpp"  // IWYU pragma: export
#include "minimpi/transport.hpp" // IWYU pragma: export
#include "minimpi/types.hpp"     // IWYU pragma: export
#include "minimpi/window.hpp"    // IWYU pragma: export
