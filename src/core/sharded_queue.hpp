#pragma once
/// \file sharded_queue.hpp
/// The *sharded* inter-node work source: one RMA window segment per node
/// instead of the centralized rank-0 queue.
///
/// Every node owns a shard of the iteration space, sized by its static
/// weight (dls::shard_partition), hosted on the node's lowest world rank as
/// two window cells:
///
///   cell 0   remaining iterations R of the shard (CAS-protected)
///   cell 1   the shard's scheduling-step counter
///
/// A node's ranks self-schedule the shard with the step-indexed formulas
/// (dls::shard_chunk_hint, P = node count: the shard runs the technique's
/// full decreasing schedule over its own range — finer carves than the
/// centralized per-node subsequence, which keeps the shard stealable
/// longer at node-local cost):
///
///   step   <- fetch_add(+1, own step cell)
///   hint   <- shard_chunk_hint(technique, shard, step)
///   R_old  <- atomic_update(own R cell, R -> R - min(hint, R))
///   chunk  =  [lo + S - R_old, lo + S - R_old + min(hint, R_old))
///
/// Acquisitions touch only the node-local window — no inter-node traffic
/// at all while a shard lasts, which is exactly the coordinator hotspot
/// the 2021 distributed-chunk-calculation follow-up removes. Once the own
/// shard drains, the rank scans every peer shard's R, picks the most
/// loaded victim and steals half its remainder with the same CAS
/// (Window::atomic_update) — both owners and thieves carve min(take, R)
/// from the single R cell, so the shard tiles [lo, lo+S) exactly no
/// matter how the two interleave, and the whole loop tiles [0, N).
/// try_acquire returns std::nullopt only after a scan finds every shard
/// empty, at which point all N iterations are assigned (R never grows).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/inter_queue.hpp"
#include "dls/sharding.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

class ShardedInterQueue final : public InterQueue {
public:
    using Chunk = InterQueue::Chunk;

    /// Collective over `comm`. `level_workers` is the node (= shard) count;
    /// `node` is the caller's shard in [0, level_workers). `node_weights`
    /// size the shards (empty = equal; otherwise size must be
    /// level_workers; only ratios matter).
    ShardedInterQueue(const minimpi::Comm& comm, std::int64_t total_iterations,
                      dls::Technique technique, int level_workers, int node,
                      std::int64_t min_chunk, std::vector<double> node_weights = {});

    [[nodiscard]] std::optional<Chunk> try_acquire() override;

    [[nodiscard]] std::int64_t acquired() const noexcept override { return acquired_; }
    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Chunks this handle stole from peer shards (per-rank statistic).
    [[nodiscard]] std::int64_t stolen() const noexcept { return stolen_; }

    /// Exact remaining count of `node`'s shard (atomic read).
    [[nodiscard]] std::int64_t remaining_of(int node) const;

    /// The shard layout (for tests/telemetry): shard `node` covers
    /// [shard_lo(node), shard_lo(node) + shard_size(node)).
    [[nodiscard]] std::int64_t shard_lo(int node) const;
    [[nodiscard]] std::int64_t shard_size(int node) const;

    void free() override;

private:
    static constexpr std::size_t kRemaining = 0;
    static constexpr std::size_t kStep = 1;
    static constexpr std::size_t kShardCells = 2;

    /// Owner-path carve from shard `shard`; nullopt when it is empty.
    [[nodiscard]] std::optional<Chunk> take_from(int shard);

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::Technique technique_{};
    std::int64_t min_chunk_ = 1;
    int level_workers_ = 0;
    int node_ = 0;
    std::vector<int> host_of_;          ///< shard -> hosting world rank
    std::vector<std::int64_t> sizes_;   ///< shard sizes (sum = N)
    std::vector<std::int64_t> lo_;      ///< shard lower bounds (prefix sums)
    std::int64_t acquired_ = 0;
    std::int64_t stolen_ = 0;
};

}  // namespace hdls::core
