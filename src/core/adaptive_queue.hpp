#pragma once
/// \file adaptive_queue.hpp
/// The adaptive inter-node work queue: FAC, WF and AWF-B/C/D/E at level 1.
///
/// Extends the paper's rank-0-hosted RMA window with a *feedback region*
/// (all cells are std::int64_t so every access stays a native atomic):
///
///   cell 0                      remaining iterations R (CAS-protected)
///   cell 1                      scheduling-step counter
///   cells 2+3i .. 4+3i          node i: iterations, compute ns, overhead ns
///
/// Chunk acquisition is masterless, passive-target only:
///   1. read the feedback region and derive this node's weight via
///      dls::awf_weights (WF uses its static weight; FAC skips this);
///   2. R -> R - size with size = dls::remaining_based_chunk(R, weight),
///      through a compare_and_swap retry loop (Window::atomic_update) — the
///      CAS protection is what makes the tiling exact under concurrency;
///   3. fetch_add(+1) on the step counter for the chunk's step id.
/// The acquired chunk is [N - R_old, N - R_old + size).
///
/// After executing a chunk a rank posts report(): three fetch_add sums
/// into its node's feedback cells (times as integer nanoseconds). AWF-C/E
/// re-derive weights on every acquisition; AWF-B/D only when the
/// halving-batch index advances (dls::halving_batch_index), the
/// remaining-count stand-in for AWF-B/D's batch-boundary adaptation.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/inter_queue.hpp"
#include "dls/adaptive.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

class AdaptiveGlobalQueue final : public InterQueue {
public:
    using Chunk = InterQueue::Chunk;

    /// Collective over `comm`. `level_workers` is P in the chunk formulas
    /// (the paper uses the node count); `node` is the caller's level-1
    /// entity id in [0, level_workers). `node_weights` are WF's static
    /// weights (empty = equal; otherwise size must be level_workers).
    AdaptiveGlobalQueue(const minimpi::Comm& comm, std::int64_t total_iterations,
                        dls::Technique technique, int level_workers, int node,
                        std::int64_t min_chunk, std::vector<double> node_weights = {},
                        double fac_sigma = 0.0, double fac_mu = 1.0);

    [[nodiscard]] std::optional<Chunk> try_acquire() override;

    /// Accumulates executed iterations and their times into this node's
    /// feedback cells (atomic sums; callable concurrently from every rank
    /// of the node).
    void report(std::int64_t iterations, double compute_seconds,
                double overhead_seconds) override;

    [[nodiscard]] bool wants_feedback() const noexcept override {
        return dls::is_adaptive(technique_);
    }

    [[nodiscard]] std::int64_t acquired() const noexcept override { return acquired_; }
    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Exact remaining-iterations count (atomic read; monotone under use).
    [[nodiscard]] std::int64_t remaining() const;

    /// Snapshot of node `i`'s accumulated feedback (for tests/telemetry).
    [[nodiscard]] dls::NodeFeedback feedback_of(int node) const;

    void free() override;

private:
    static constexpr int kHost = 0;
    static constexpr std::size_t kRemaining = 0;
    static constexpr std::size_t kStep = 1;
    static constexpr std::size_t kFeedbackBase = 2;
    static constexpr std::size_t kFeedbackFields = 3;  // iters, compute ns, overhead ns

    [[nodiscard]] static constexpr std::size_t cell_of(int node, std::size_t field) noexcept {
        return kFeedbackBase + kFeedbackFields * static_cast<std::size_t>(node) + field;
    }

    /// This node's current weight, refreshed per the technique's cadence.
    [[nodiscard]] double current_weight(std::int64_t remaining_now);

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::LoopParams params_;
    dls::Technique technique_{};
    std::int64_t total_ = 0;
    int level_workers_ = 0;
    int node_ = 0;
    std::int64_t acquired_ = 0;
    std::vector<double> static_weights_;  // WF; mean-1 normalized
    dls::AwfWeightCache weight_cache_;    // per-handle AWF refresh cadence
};

}  // namespace hdls::core
