/// \file runtime.cpp

#include "minimpi/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/env_config.hpp"

namespace minimpi {

namespace {

constexpr std::uint64_t kWorldCommId = 1;

[[nodiscard]] bool is_abort_error(const std::exception_ptr& ep) noexcept {
    try {
        std::rethrow_exception(ep);
    } catch (const Error& e) {
        return e.code() == ErrorCode::Aborted;
    } catch (...) {
        return false;
    }
}

}  // namespace

void Runtime::run(int world_size, const Topology& topology,
                  const std::function<void(Context&)>& fn) {
    run(world_size, topology, hdls::core::read_env(hdls::core::KnobScope::Run).transport, fn);
}

void Runtime::run(int world_size, const Topology& topology, TransportKind transport,
                  const std::function<void(Context&)>& fn) {
    if (world_size < 1) {
        throw Error(ErrorCode::InvalidArgument, "minimpi: world_size must be >= 1");
    }
    topology.validate_world(world_size);
    if (!fn) {
        throw Error(ErrorCode::InvalidArgument, "minimpi: rank function must not be empty");
    }

    detail::RuntimeState state;
    state.world_size = world_size;
    state.topology = topology;
    state.transport = detail::make_transport(transport, world_size);

    auto world_meta = std::make_shared<detail::CommMeta>();
    world_meta->id = kWorldCommId;
    world_meta->members.resize(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        world_meta->members[static_cast<std::size_t>(r)] = r;
    }

    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto rank_main = [&](int rank) {
        try {
            Comm world(&state, world_meta, rank);
            Context ctx(&state, std::move(world));
            fn(ctx);
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(error_mutex);
                const auto current = std::current_exception();
                // Keep the first *primary* failure: an Aborted error is
                // only the echo of some other rank's real exception.
                if (!first_error || (is_abort_error(first_error) && !is_abort_error(current))) {
                    first_error = current;
                }
            }
            state.abort.store(true, std::memory_order_release);
            state.interrupt_all();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        threads.emplace_back(rank_main, r);
    }
    for (auto& t : threads) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

void Runtime::run(int world_size, const std::function<void(Context&)>& fn) {
    Topology topo;
    topo.ranks_per_node = world_size;  // everyone on one simulated node
    run(world_size, topo, fn);
}

void Runtime::run(int world_size, TransportKind transport,
                  const std::function<void(Context&)>& fn) {
    Topology topo;
    topo.ranks_per_node = world_size;
    run(world_size, topo, transport, fn);
}

}  // namespace minimpi
