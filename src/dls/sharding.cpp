#include "dls/sharding.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <string>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"
#include "util/parse.hpp"

namespace hdls::dls {

std::vector<LevelScheme> resolve_level_plan(
    int depth, const std::vector<LevelScheme>& levels, const LevelScheme& inter,
    Technique intra, std::string_view prefix,
    const std::function<std::string(int)>& level_name,
    const std::function<void(int, Technique)>& on_fallback) {
    std::vector<LevelScheme> plan;
    if (levels.empty()) {
        plan.assign(static_cast<std::size_t>(depth), inter);
        plan.back().technique = intra;
    } else {
        if (static_cast<int>(levels.size()) != depth) {
            throw std::invalid_argument(std::string(prefix) + "got " +
                                        std::to_string(levels.size()) +
                                        " level configs for a depth-" + std::to_string(depth) +
                                        " topology");
        }
        plan = levels;
        for (LevelScheme& lv : plan) {
            if (!lv.backend) {
                lv.backend = inter.backend;
            }
        }
    }
    plan.back().backend.reset();

    const auto reject = [&](int d, std::string_view why) {
        throw std::invalid_argument(
            std::string(prefix) + level_name(d) + " technique " +
            std::string(technique_name(plan[static_cast<std::size_t>(d)].technique)) +
            std::string(why));
    };
    if (!supports_internode(plan.front().technique)) {
        reject(0, " has neither a step-indexed nor a remaining-count-based distributed form");
    }
    for (int d = 0; d < depth - 1; ++d) {
        LevelScheme& lv = plan[static_cast<std::size_t>(d)];
        if (lv.backend == InterBackend::Sharded && !supports_sharded(lv.technique)) {
            if (on_fallback) {
                on_fallback(d, lv.technique);
            }
            lv.backend = InterBackend::Centralized;
        }
        if (d > 0 && lv.backend == InterBackend::Centralized &&
            !supports_step_indexed(lv.technique)) {
            reject(d, " cannot relay parent chunks (needs a step-indexed or sharded form)");
        }
    }
    return plan;
}

std::string_view inter_backend_name(InterBackend b) noexcept {
    switch (b) {
        case InterBackend::Centralized:
            return "centralized";
        case InterBackend::Sharded:
            return "sharded";
    }
    return "?";
}

std::optional<InterBackend> inter_backend_from_string(std::string_view name) noexcept {
    if (util::iequals(name, "central")) {
        return InterBackend::Centralized;
    }
    if (util::iequals(name, "shard")) {
        return InterBackend::Sharded;
    }
    return util::from_name(name, std::array{InterBackend::Centralized, InterBackend::Sharded},
                           inter_backend_name);
}

bool supports_sharded(Technique t) noexcept {
    return supports_step_indexed(t) || t == Technique::WF;
}

Technique shard_formula(Technique t) {
    if (!supports_sharded(t)) {
        throw std::invalid_argument(
            "shard_formula: technique has no sharded form (needs the global remaining count)");
    }
    return t == Technique::WF ? Technique::FAC2 : t;
}

std::vector<std::int64_t> shard_partition(std::int64_t total, std::vector<double> weights,
                                          int nodes) {
    if (nodes < 1) {
        throw std::invalid_argument("shard_partition: nodes must be >= 1");
    }
    if (total < 0) {
        throw std::invalid_argument("shard_partition: total must be >= 0");
    }
    // Mean-1 normalization (same canonicalization WF uses), so node i's
    // ideal share is total * w_i / nodes.
    const std::vector<double> w = normalize_static_weights(std::move(weights), nodes);
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(nodes), 0);
    std::vector<double> fractions(static_cast<std::size_t>(nodes), 0.0);
    std::int64_t assigned = 0;
    for (int i = 0; i < nodes; ++i) {
        const double ideal = static_cast<double>(total) * w[static_cast<std::size_t>(i)] /
                             static_cast<double>(nodes);
        const auto floor_share = static_cast<std::int64_t>(ideal);
        sizes[static_cast<std::size_t>(i)] = floor_share;
        fractions[static_cast<std::size_t>(i)] = ideal - static_cast<double>(floor_share);
        assigned += floor_share;
    }
    // Largest remainder: hand the leftover iterations out one by one, by
    // descending fractional part, ties to the lower node id.
    std::vector<int> order(static_cast<std::size_t>(nodes));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return fractions[static_cast<std::size_t>(a)] > fractions[static_cast<std::size_t>(b)];
    });
    const std::int64_t leftover = total - assigned;
    for (std::int64_t k = 0; k < leftover; ++k) {
        ++sizes[static_cast<std::size_t>(order[static_cast<std::size_t>(k % nodes)])];
    }
    return sizes;
}

std::int64_t shard_chunk_hint(Technique t, std::int64_t shard_size, int level_workers,
                              std::int64_t min_chunk, std::int64_t step) {
    if (shard_size <= 0) {
        return 0;
    }
    LoopParams p;
    p.total_iterations = shard_size;
    p.workers = level_workers;
    p.min_chunk = min_chunk;
    const std::int64_t hint = chunk_size_for_step(shard_formula(t), p, step);
    return hint > 0 ? hint : 0;
}

std::int64_t steal_amount(std::int64_t remaining, std::int64_t min_chunk) noexcept {
    if (remaining <= 0) {
        return 0;
    }
    if (remaining <= min_chunk) {
        return remaining;
    }
    return remaining - remaining / 2;  // ceil(R / 2)
}

}  // namespace hdls::dls
