#include "core/adaptive_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/global_queue.hpp"
#include "core/sharded_queue.hpp"
#include "util/log.hpp"

namespace hdls::core {


AdaptiveGlobalQueue::AdaptiveGlobalQueue(const minimpi::Comm& comm,
                                         std::int64_t total_iterations,
                                         dls::Technique technique, int level_workers, int node,
                                         std::int64_t min_chunk,
                                         std::vector<double> node_weights, double fac_sigma,
                                         double fac_mu)
    : comm_(comm), total_(total_iterations), level_workers_(level_workers), node_(node) {
    params_.total_iterations = total_iterations;
    params_.workers = level_workers;
    params_.min_chunk = min_chunk;
    params_.sigma = fac_sigma;
    params_.mu = fac_mu;
    params_.validate();
    if (!dls::supports_remaining_based(technique)) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "AdaptiveGlobalQueue: technique lacks a remaining-count-based "
                             "form (use GlobalWorkQueue for step-indexed techniques)");
    }
    if (node < 0 || node >= level_workers) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "AdaptiveGlobalQueue: node id out of range");
    }
    technique_ = technique;
    try {
        static_weights_ = dls::normalize_static_weights(std::move(node_weights), level_workers);
    } catch (const std::invalid_argument& e) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             std::string("AdaptiveGlobalQueue: ") + e.what());
    }

    const std::size_t cells =
        kFeedbackBase + kFeedbackFields * static_cast<std::size_t>(level_workers);
    window_ = minimpi::Window::allocate_shared(
        comm, comm.rank() == 0 ? cells * sizeof(std::int64_t) : 0);
    if (comm.rank() == 0) {
        auto mem = window_.shared_span<std::int64_t>(kHost);
        for (auto& v : mem) {
            v = 0;
        }
        mem[kRemaining] = total_iterations;
    }
    window_.sync();
    comm_.barrier();
}

double AdaptiveGlobalQueue::current_weight(std::int64_t remaining_now) {
    if (!dls::is_adaptive(technique_)) {
        // WF (FAC ignores the weight entirely; 1.0 is harmless).
        return static_weights_[static_cast<std::size_t>(node_)];
    }
    return weight_cache_.weight(technique_, node_, total_, remaining_now, [&] {
        std::vector<dls::NodeFeedback> feedback(static_cast<std::size_t>(level_workers_));
        for (int i = 0; i < level_workers_; ++i) {
            feedback[static_cast<std::size_t>(i)] = feedback_of(i);
        }
        return feedback;
    });
}

std::optional<AdaptiveGlobalQueue::Chunk> AdaptiveGlobalQueue::try_acquire() {
    const std::int64_t glance = window_.atomic_read<std::int64_t>(kHost, kRemaining);
    if (glance <= 0) {
        return std::nullopt;
    }
    const double weight = current_weight(glance);
    const std::int64_t before =
        window_.atomic_update<std::int64_t>(kHost, kRemaining, [&](std::int64_t r) {
            return r - dls::remaining_based_chunk(technique_, params_, r, weight);
        });
    if (before <= 0) {
        return std::nullopt;
    }
    // The chunk formula is a pure function of (remaining, weight), so
    // re-evaluating it at the value the update was applied to reproduces
    // exactly the size subtracted inside the CAS loop.
    const std::int64_t size = dls::remaining_based_chunk(technique_, params_, before, weight);
    if (size <= 0) {
        return std::nullopt;
    }
    const std::int64_t step = window_.fetch_add<std::int64_t>(1, kHost, kStep);
    ++acquired_;
    return Chunk{total_ - before, size, step};
}

void AdaptiveGlobalQueue::report(std::int64_t iterations, double compute_seconds,
                                 double overhead_seconds) {
    if (iterations <= 0 && compute_seconds <= 0.0 && overhead_seconds <= 0.0) {
        return;
    }
    // Times first, iterations last (and feedback_of reads in the opposite
    // order): a concurrent snapshot torn across the three updates can then
    // only pair old iterations with new time — underestimating the node's
    // rate, which is conservative. The reverse tearing would hand a slow
    // node an oversized chunk.
    (void)window_.fetch_add<std::int64_t>(dls::feedback_ns(compute_seconds), kHost,
                                          cell_of(node_, 1));
    (void)window_.fetch_add<std::int64_t>(dls::feedback_ns(overhead_seconds), kHost,
                                          cell_of(node_, 2));
    (void)window_.fetch_add<std::int64_t>(std::max<std::int64_t>(iterations, 0), kHost,
                                          cell_of(node_, 0));
}

std::int64_t AdaptiveGlobalQueue::remaining() const {
    return window_.atomic_read<std::int64_t>(kHost, kRemaining);
}

dls::NodeFeedback AdaptiveGlobalQueue::feedback_of(int node) const {
    dls::NodeFeedback f;
    // Iterations before times — the mirror of report()'s update order, so
    // a torn snapshot can only under-read the rate (see report()).
    f.iterations = window_.atomic_read<std::int64_t>(kHost, cell_of(node, 0));
    f.compute_seconds =
        static_cast<double>(window_.atomic_read<std::int64_t>(kHost, cell_of(node, 1))) * 1e-9;
    f.overhead_seconds =
        static_cast<double>(window_.atomic_read<std::int64_t>(kHost, cell_of(node, 2))) * 1e-9;
    return f;
}

void AdaptiveGlobalQueue::free() {
    comm_.barrier();
    window_.free();
}

std::unique_ptr<InterQueue> make_inter_queue(const minimpi::Comm& comm,
                                             std::int64_t total_iterations,
                                             const HierConfig& cfg, int level_workers,
                                             int node) {
    if (effective_inter_backend(cfg) == dls::InterBackend::Sharded) {
        return std::make_unique<ShardedInterQueue>(comm, total_iterations, cfg.inter,
                                                   level_workers, node, cfg.min_chunk,
                                                   cfg.node_weights);
    }
    if (cfg.inter_backend == dls::InterBackend::Sharded) {
        // FAC and the AWF family need the exact global remaining count (and
        // the feedback region), which a shard cannot provide. Every rank
        // takes this branch identically, so the fallback stays collective.
        if (comm.rank() == 0) {
            util::log_warn("sharded inter-node backend cannot serve ",
                           dls::technique_name(cfg.inter),
                           "; falling back to the centralized queue");
        }
    }
    if (dls::supports_step_indexed(cfg.inter)) {
        return std::make_unique<GlobalWorkQueue>(comm, total_iterations, cfg.inter,
                                                 level_workers, cfg.min_chunk);
    }
    if (dls::supports_remaining_based(cfg.inter)) {
        return std::make_unique<AdaptiveGlobalQueue>(
            comm, total_iterations, cfg.inter, level_workers, node, cfg.min_chunk,
            cfg.node_weights, cfg.fac_sigma, cfg.fac_mu);
    }
    throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                         "make_inter_queue: technique has no distributed form");
}

}  // namespace hdls::core
