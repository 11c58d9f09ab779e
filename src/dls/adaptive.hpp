#pragma once
/// \file adaptive.hpp
/// Remaining-count-based ("feedback") chunk formulas for the adaptive
/// inter-node level.
///
/// The step-indexed forms (chunk_formulas.hpp) cannot express FAC (which
/// needs the exact remaining-iterations count) or the weighted family WF /
/// AWF-B/C/D/E (which additionally needs the requester's weight). This
/// module provides the distributed form both can use: the shared state is a
/// single CAS-protected *remaining iterations* cell plus, for AWF, a
/// per-node feedback region of (iterations, compute time, overhead time)
/// accumulators. A requester
///
///   1. reads the feedback region and derives its weight (awf_weights),
///   2. reads R and computes a size hint (remaining_based_chunk),
///   3. CAS-updates R -> R - min(hint, R); on success its chunk is
///      [N - R, N - R + size) — exact tiling with no master process.
///
/// The same formulas drive core::AdaptiveGlobalQueue (real RMA window) and
/// sim::InterChunkSource (virtual time), so the simulator and the real
/// executors schedule identically.
///
/// Because every request recomputes its share from the *current* R, the
/// batched factoring of the literature becomes "continuous" factoring
/// here: each request receives its weighted slice of half the remaining
/// work. AWF-B/D approximate their batch-boundary adaptation cadence with
/// halving_batch_index(N, R), which advances each time R halves, as a
/// FAC2 batch (half the remaining work) would retire.
///
/// This is the only implementation of FAC, WF and AWF-B/C/D/E; the
/// step-indexed techniques have theirs in chunk_formulas.hpp.

#include <cstdint>
#include <span>
#include <vector>

#include "dls/params.hpp"
#include "dls/technique.hpp"

namespace hdls::dls {

/// Per-node accumulated execution feedback — a snapshot of the adaptive
/// queue's RMA feedback region.
struct NodeFeedback {
    std::int64_t iterations = 0;
    double compute_seconds = 0.0;
    double overhead_seconds = 0.0;
};

/// AWF weighted performance rates: rate_i = iterations_i / time_i where
/// time includes scheduling overhead for AWF-D/E (rate_includes_overhead).
/// Returns mean-1-normalized weights; nodes with no measurements (no
/// iterations or zero accumulated time) get the neutral weight 1. With no
/// observations at all, every node gets 1 (the WF/FAC2 bootstrap batch).
[[nodiscard]] std::vector<double> awf_weights(Technique t,
                                              std::span<const NodeFeedback> feedback);

/// Chunk-size hint from the exact remaining count `remaining` and the
/// requester's weight (ignored by FAC):
///   FAC        ceil(R / (x * P)), x = 1 + b^2 + b*sqrt(b^2 + 2),
///              b = P * sigma / (2 * sqrt(R) * mu)
///   WF, AWF-*  ceil(ceil(R / 2) * w / P)  (weighted half-remaining share)
/// The result is clamped to [min_chunk, R]; 0 when R <= 0.
/// Preconditions: supports_remaining_based(t) and params validated.
/// Throws std::invalid_argument for techniques without this form.
[[nodiscard]] std::int64_t remaining_based_chunk(Technique t, const LoopParams& p,
                                                 std::int64_t remaining, double weight);

/// Index of the FAC2-style halving batch that `remaining` falls in:
/// 0 while R > N/2, 1 while R > N/4, ... AWF-B/D refresh their weights
/// only when this index advances; AWF-C/E refresh on every chunk.
[[nodiscard]] std::int64_t halving_batch_index(std::int64_t total,
                                               std::int64_t remaining) noexcept;

/// True when `t` refreshes weights on every chunk (AWF-C/E) rather than at
/// batch boundaries (AWF-B/D). WF and FAC never refresh.
[[nodiscard]] bool per_chunk_adaptation(Technique t) noexcept;

/// True when `t`'s rates include scheduling-overhead time (AWF-D/E).
[[nodiscard]] bool rate_includes_overhead(Technique t) noexcept;

/// Seconds -> non-negative integer nanoseconds, the unit of the feedback
/// region's time cells (and of FeedbackReport trace payloads).
[[nodiscard]] std::int64_t feedback_ns(double seconds) noexcept;

/// Canonicalizes WF's static weights: empty -> `workers` equal weights;
/// all-zero -> equal weights; otherwise mean-1 normalized. Throws
/// std::invalid_argument on a size mismatch or negative entries. Both the
/// real AdaptiveGlobalQueue and the simulator's InterChunkSource go
/// through here, so the two schedule identically.
[[nodiscard]] std::vector<double> normalize_static_weights(std::vector<double> weights,
                                                           int workers);

/// Per-requester weight cache implementing the AWF refresh cadence:
/// AWF-C/E re-derive weights on every chunk, AWF-B/D hold them until the
/// halving-batch index advances. `snapshot` is invoked only when a refresh
/// is due and must return the per-node feedback (anything convertible to
/// std::span<const NodeFeedback>).
class AwfWeightCache {
public:
    template <typename SnapshotFn>
    [[nodiscard]] double weight(Technique t, int node, std::int64_t total,
                                std::int64_t remaining, SnapshotFn&& snapshot) {
        const std::int64_t batch = halving_batch_index(total, remaining);
        if (!per_chunk_adaptation(t) && batch == batch_) {
            return weight_;
        }
        const auto feedback = snapshot();
        const std::vector<double> weights = awf_weights(t, feedback);
        batch_ = batch;
        weight_ = weights[static_cast<std::size_t>(node)];
        return weight_;
    }

private:
    std::int64_t batch_ = -1;
    double weight_ = 1.0;
};

}  // namespace hdls::dls
