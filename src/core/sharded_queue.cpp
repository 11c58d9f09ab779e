#include "core/sharded_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hdls::core {

ShardedInterQueue::ShardedInterQueue(const minimpi::Comm& comm, std::int64_t total_iterations,
                                     dls::Technique technique, int level_workers, int node,
                                     std::int64_t min_chunk,
                                     std::vector<double> node_weights)
    : comm_(comm), min_chunk_(min_chunk), level_workers_(level_workers), node_(node) {
    if (!dls::supports_sharded(technique)) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "ShardedInterQueue: technique has no sharded form (needs the "
                             "global remaining count; use the centralized backend)");
    }
    if (level_workers < 1) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "ShardedInterQueue: level_workers must be >= 1");
    }
    if (node < 0 || node >= level_workers) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "ShardedInterQueue: node id out of range");
    }
    if (min_chunk < 1) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "ShardedInterQueue: min_chunk must be >= 1");
    }
    technique_ = technique;
    try {
        sizes_ = dls::shard_partition(total_iterations, std::move(node_weights), level_workers);
    } catch (const std::invalid_argument& e) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             std::string("ShardedInterQueue: ") + e.what());
    }
    lo_.resize(static_cast<std::size_t>(level_workers));
    std::int64_t acc = 0;
    for (int j = 0; j < level_workers; ++j) {
        lo_[static_cast<std::size_t>(j)] = acc;
        acc += sizes_[static_cast<std::size_t>(j)];
    }

    // Every rank learns which world rank hosts each shard: the lowest rank
    // of the shard's node (the allgather doubles as the layout agreement).
    const std::vector<int> node_of = comm.allgather(node);
    host_of_.assign(static_cast<std::size_t>(level_workers), -1);
    for (int r = 0; r < comm.size(); ++r) {
        const int n = node_of[static_cast<std::size_t>(r)];
        if (n < 0 || n >= level_workers) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "ShardedInterQueue: a rank reported a node id out of range");
        }
        if (host_of_[static_cast<std::size_t>(n)] < 0) {
            host_of_[static_cast<std::size_t>(n)] = r;
        }
    }
    for (int j = 0; j < level_workers; ++j) {
        if (host_of_[static_cast<std::size_t>(j)] < 0) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "ShardedInterQueue: node " + std::to_string(j) +
                                     " has no rank in the communicator to host its shard");
        }
    }

    const bool am_host = host_of_[static_cast<std::size_t>(node_)] == comm.rank();
    window_ = minimpi::Window::allocate_shared(
        comm, am_host ? kShardCells * sizeof(std::int64_t) : 0);
    if (am_host) {
        auto cells = window_.shared_span<std::int64_t>(comm.rank());
        cells[kRemaining] = sizes_[static_cast<std::size_t>(node_)];
        cells[kStep] = 0;
    }
    window_.sync();
    comm_.barrier();
}

std::optional<ShardedInterQueue::Chunk> ShardedInterQueue::take_from(int shard) {
    const int host = host_of_[static_cast<std::size_t>(shard)];
    const std::int64_t glance = window_.atomic_read<std::int64_t>(host, kRemaining);
    if (glance <= 0) {
        return std::nullopt;
    }
    const std::int64_t step = window_.fetch_add<std::int64_t>(1, host, kStep);
    const std::int64_t hint = dls::shard_chunk_hint(
        technique_, sizes_[static_cast<std::size_t>(shard)], level_workers_, min_chunk_, step);
    // hint <= 0 (formula ran dry before the shard did — possible only
    // through clamping races) takes the whole remainder; either way the
    // transform is a pure function of R, as atomic_update requires.
    const std::int64_t before =
        window_.atomic_update<std::int64_t>(host, kRemaining, [&](std::int64_t r) {
            return r - (hint > 0 ? std::min(hint, r) : r);
        });
    if (before <= 0) {
        return std::nullopt;  // raced to empty between the glance and the CAS
    }
    const std::int64_t take = hint > 0 ? std::min(hint, before) : before;
    ++acquired_;
    return Chunk{lo_[static_cast<std::size_t>(shard)] +
                     sizes_[static_cast<std::size_t>(shard)] - before,
                 take, step, false};
}

std::optional<ShardedInterQueue::Chunk> ShardedInterQueue::try_acquire() {
    // Own shard first: node-local window traffic only.
    if (auto own = take_from(node_)) {
        return own;
    }
    // Shard drained: steal half the remainder of the most-loaded victim.
    // Each round either succeeds or observes strictly less remaining work
    // (R cells only decrease), so the loop terminates; nullopt means a
    // full scan found every shard empty — all N iterations are assigned.
    for (;;) {
        int victim = -1;
        std::int64_t best = 0;
        for (int j = 0; j < level_workers_; ++j) {
            if (j == node_) {
                continue;
            }
            const std::int64_t r = window_.atomic_read<std::int64_t>(
                host_of_[static_cast<std::size_t>(j)], kRemaining);
            if (r > best) {
                best = r;
                victim = j;
            }
        }
        if (victim < 0) {
            // Peers are dry; re-check the own shard once (a peer may have
            // been mid-carve during our scan, but R cells never grow, so
            // finding everything empty is conclusive).
            if (auto own = take_from(node_)) {
                return own;
            }
            return std::nullopt;
        }
        const int host = host_of_[static_cast<std::size_t>(victim)];
        // A dead host's shard has no owner left to drain it: take the
        // whole remainder in one carve instead of halving — membership
        // loss re-apportions the shard to the survivor outright (the
        // fault-tolerance path; host death is declared by the heartbeat
        // failure detector and is sticky). The cells live in the shared
        // window, which outlives the dead rank's thread.
        const bool host_dead = comm_.is_dead(host);
        const std::int64_t before =
            window_.atomic_update<std::int64_t>(host, kRemaining, [&](std::int64_t r) {
                return r - (host_dead ? r : dls::steal_amount(r, min_chunk_));
            });
        const std::int64_t take =
            host_dead ? before : dls::steal_amount(before, min_chunk_);
        if (take <= 0) {
            continue;  // victim drained since the scan; rescan
        }
        // The step id is telemetry, not an input to any formula: this
        // handle's chunk ordinal does, with no extra window traffic.
        const std::int64_t step = acquired_;
        ++acquired_;
        ++stolen_;
        return Chunk{lo_[static_cast<std::size_t>(victim)] +
                         sizes_[static_cast<std::size_t>(victim)] - before,
                     take, step, true};
    }
}

std::int64_t ShardedInterQueue::remaining_of(int node) const {
    if (node < 0 || node >= level_workers_) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "ShardedInterQueue::remaining_of: node out of range");
    }
    return window_.atomic_read<std::int64_t>(host_of_[static_cast<std::size_t>(node)],
                                             kRemaining);
}

std::int64_t ShardedInterQueue::shard_lo(int node) const {
    return lo_.at(static_cast<std::size_t>(node));
}

std::int64_t ShardedInterQueue::shard_size(int node) const {
    return sizes_.at(static_cast<std::size_t>(node));
}

void ShardedInterQueue::free() {
    comm_.barrier();
    window_.free();
}

}  // namespace hdls::core
