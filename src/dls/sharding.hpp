#pragma once
/// \file sharding.hpp
/// Shard math of the *sharded* inter-node backend.
///
/// The centralized level-1 queues serialize every acquisition through one
/// rank-0 RMA window. The sharded backend removes that hotspot the way
/// "A Distributed Chunk Calculation Approach for Self-scheduling of
/// Parallel Applications on Distributed-memory Systems" (Eleliemy &
/// Ciorba, 2021) does: the iteration space is pre-partitioned over the
/// nodes (by static node weight), each node self-schedules its own shard
/// through the step-indexed formulas, and an idle node steals half the
/// remainder of the most-loaded victim's shard with one CAS.
///
/// Everything here is pure shard arithmetic shared by the real queue
/// (core::ShardedInterQueue) and the simulator's virtual-time source
/// (sim::detail::ShardedInterSource), so the two cannot drift:
///  * shard_partition  — largest-remainder apportionment of N by weight;
///  * shard_chunk_hint — the within-shard step-indexed chunk size;
///  * steal_amount     — the thief's half-remainder share.
/// All three are deterministic, and every carve (owner or thief) removes
/// `min(hint, R)` from a single per-shard remaining count R, so the shard
/// tiles exactly no matter how acquisitions and steals interleave.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dls/technique.hpp"

namespace hdls::dls {

/// Which level-1 queue implementation serves the inter-node level.
enum class InterBackend {
    Centralized,  ///< one rank-0 window (GlobalWorkQueue / AdaptiveGlobalQueue)
    Sharded,      ///< one window per node + CAS work stealing (ShardedInterQueue)
};

/// Canonical lower-case name ("centralized" / "sharded").
[[nodiscard]] std::string_view inter_backend_name(InterBackend b) noexcept;

/// Scheduling choice of one level of a topology tree: the technique that
/// partitions a group's work among its children, and (for levels backed by
/// a queue window) which backend implementation serves it. An unset
/// backend inherits the run's default (HierConfig/SimConfig::inter_backend
/// for interior levels; the leaf level is always the shared local queue).
struct LevelScheme {
    Technique technique = Technique::GSS;
    std::optional<InterBackend> backend;
};

/// The validated per-level plan of a depth-`depth` tree — the one level
/// derivation behind core::resolve_hierarchy and the simulator's plan.
/// Empty `levels` derives {inter, ..., inter, {intra}}; explicit `levels`
/// must hold `depth` entries, and an unset interior backend inherits
/// `inter.backend`. The leaf level never carries a backend. A sharded
/// level whose technique has no sharded form falls back to centralized,
/// after `on_fallback(level, technique)` (when set) has been told.
/// Throws std::invalid_argument — the message starts with `prefix` and
/// names level d as `level_name(d)` — on a level-count mismatch, a root
/// technique without a distributed form, or a centralized interior level
/// without a step-indexed form.
[[nodiscard]] std::vector<LevelScheme> resolve_level_plan(
    int depth, const std::vector<LevelScheme>& levels, const LevelScheme& inter,
    Technique intra, std::string_view prefix,
    const std::function<std::string(int)>& level_name,
    const std::function<void(int, Technique)>& on_fallback = {});

/// Parses a canonical name (case-insensitive); std::nullopt if unknown.
[[nodiscard]] std::optional<InterBackend> inter_backend_from_string(
    std::string_view name) noexcept;

/// True if the technique can be served by the sharded backend: every
/// step-indexed technique, plus WF (whose static weights become the shard
/// partition, with FAC2 halving inside each shard — weighted factoring by
/// construction). The adaptive family and FAC need the exact *global*
/// remaining count and stay centralized.
[[nodiscard]] bool supports_sharded(Technique t) noexcept;

/// The step-indexed formula used *within* a shard: the technique itself,
/// except WF which maps to FAC2 (its weight already shaped the shard).
/// Precondition: supports_sharded(t).
[[nodiscard]] Technique shard_formula(Technique t);

/// Largest-remainder apportionment of `total` iterations over `nodes`
/// shards proportional to `weights` (empty = equal; negative entries or a
/// size mismatch throw std::invalid_argument). The returned sizes are
/// non-negative and sum to exactly `total`; ties go to the lower node id.
[[nodiscard]] std::vector<std::int64_t> shard_partition(std::int64_t total,
                                                        std::vector<double> weights,
                                                        int nodes);

/// Chunk-size hint for scheduling step `step` within a shard of
/// `shard_size` iterations; `level_workers` is P in the formulas, so each
/// shard runs the technique's full decreasing schedule over its own range.
/// That is deliberately finer-grained than the centralized per-node
/// subsequence (FAC2's first sharded chunk is S/2P, not the centralized
/// N/2P = S/2): shard acquisitions are cheap node-local atomics, and the
/// smaller carves keep a remainder available to thieves for longer.
/// Returns 0 when the formula has run dry (e.g. STATIC past its P
/// chunks) — the caller then takes the remainder.
[[nodiscard]] std::int64_t shard_chunk_hint(Technique t, std::int64_t shard_size,
                                            int level_workers, std::int64_t min_chunk,
                                            std::int64_t step);

/// Iterations a thief removes from a shard with `remaining` unassigned
/// iterations: half of the remainder (rounded up), or all of it once the
/// remainder is at most `min_chunk` (no point leaving a crumb behind).
/// 0 when nothing remains — a CAS with this in its transform is a no-op.
[[nodiscard]] std::int64_t steal_amount(std::int64_t remaining,
                                        std::int64_t min_chunk) noexcept;

}  // namespace hdls::dls
