#include "dls/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hdls::dls {

namespace {

/// FAC's batch divisor x = 1 + b^2 + b*sqrt(b^2 + 2) with
/// b = P * sigma / (2 * sqrt(R) * mu) (Hummel et al.), evaluated at the
/// current remaining count. Requires R > 0 and mu > 0.
double fac_batch_factor(const LoopParams& p, std::int64_t remaining) noexcept {
    const auto workers = static_cast<double>(p.workers);
    const double b =
        (workers * p.sigma) / (2.0 * std::sqrt(static_cast<double>(remaining)) * p.mu);
    return 1.0 + b * b + b * std::sqrt(b * b + 2.0);
}

}  // namespace

// A stateless snapshot: no observations mean neutral weights. The
// distributed protocol has no per-requester weight state to preserve,
// only the feedback region.
std::vector<double> awf_weights(Technique t, std::span<const NodeFeedback> feedback) {
    const bool with_overhead = rate_includes_overhead(t);
    std::vector<double> rates(feedback.size(), -1.0);
    double sum = 0.0;
    std::size_t observed = 0;
    for (std::size_t i = 0; i < feedback.size(); ++i) {
        const NodeFeedback& f = feedback[i];
        const double time =
            f.compute_seconds + (with_overhead ? f.overhead_seconds : 0.0);
        if (f.iterations > 0 && time > 0.0) {
            rates[i] = static_cast<double>(f.iterations) / time;
            sum += rates[i];
            ++observed;
        }
    }
    std::vector<double> weights(feedback.size(), 1.0);
    if (observed == 0) {
        return weights;  // bootstrap: no measurements, equal weights
    }
    const double mean = sum / static_cast<double>(observed);
    if (mean <= 0.0) {
        return weights;  // degenerate (all-zero rates); keep neutral
    }
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = rates[i] > 0.0 ? rates[i] / mean : 1.0;
    }
    // Renormalize to mean 1 (unobserved nodes were pinned to 1 above).
    double wsum = 0.0;
    for (const double w : weights) {
        wsum += w;
    }
    if (wsum > 0.0) {
        const double scale = static_cast<double>(weights.size()) / wsum;
        for (double& w : weights) {
            w *= scale;
        }
    }
    return weights;
}

std::int64_t remaining_based_chunk(Technique t, const LoopParams& p, std::int64_t remaining,
                                   double weight) {
    if (remaining <= 0) {
        return 0;
    }
    const auto workers = static_cast<double>(p.workers);
    double share = 0.0;
    switch (t) {
        case Technique::FAC: {
            share = static_cast<double>(remaining) /
                    (fac_batch_factor(p, remaining) * workers);
            break;
        }
        case Technique::WF:
        case Technique::AWFB:
        case Technique::AWFC:
        case Technique::AWFD:
        case Technique::AWFE: {
            const auto batch = static_cast<double>((remaining + 1) / 2);
            share = batch * std::max(weight, 0.0) / workers;
            break;
        }
        default:
            throw std::invalid_argument(std::string("remaining_based_chunk: ") +
                                        std::string(technique_name(t)) +
                                        " has no remaining-count-based form");
    }
    auto size = static_cast<std::int64_t>(std::ceil(share));
    size = std::max(size, p.min_chunk);
    return std::min(size, remaining);
}

std::int64_t halving_batch_index(std::int64_t total, std::int64_t remaining) noexcept {
    if (total <= 0 || remaining <= 0) {
        return 0;
    }
    remaining = std::min(remaining, total);
    std::int64_t index = 0;
    std::int64_t boundary = total;
    while (boundary / 2 >= remaining) {
        boundary /= 2;
        ++index;
    }
    return index;
}

bool per_chunk_adaptation(Technique t) noexcept {
    return t == Technique::AWFC || t == Technique::AWFE;
}

bool rate_includes_overhead(Technique t) noexcept {
    return t == Technique::AWFD || t == Technique::AWFE;
}

std::int64_t feedback_ns(double seconds) noexcept {
    if (!(seconds > 0.0)) {
        return 0;
    }
    return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

std::vector<double> normalize_static_weights(std::vector<double> weights, int workers) {
    if (weights.empty()) {
        weights.assign(static_cast<std::size_t>(workers), 1.0);
        return weights;
    }
    if (weights.size() != static_cast<std::size_t>(workers)) {
        throw std::invalid_argument(
            "normalize_static_weights: size must equal the level's worker count");
    }
    double sum = 0.0;
    for (const double w : weights) {
        if (w < 0.0) {
            throw std::invalid_argument("normalize_static_weights: weights must be >= 0");
        }
        sum += w;
    }
    if (sum <= 0.0) {
        std::fill(weights.begin(), weights.end(), 1.0);
        return weights;
    }
    const double scale = static_cast<double>(weights.size()) / sum;
    for (double& w : weights) {
        w *= scale;
    }
    return weights;
}

}  // namespace hdls::dls
