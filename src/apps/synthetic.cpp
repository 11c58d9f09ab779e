#include "apps/synthetic.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "simd/dispatch.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace hdls::apps {

std::vector<double> make_workload(const WorkloadSpec& spec) {
    if (spec.mean_seconds <= 0.0) {
        throw std::invalid_argument("make_workload: mean_seconds must be > 0");
    }
    if (spec.cov < 0.0) {
        throw std::invalid_argument("make_workload: cov must be >= 0");
    }
    std::vector<double> costs(spec.iterations);
    util::Xoshiro256 rng(spec.seed);
    const double floor_cost = spec.mean_seconds / 100.0;
    switch (spec.kind) {
        case WorkloadKind::Constant:
            std::fill(costs.begin(), costs.end(), spec.mean_seconds);
            break;
        case WorkloadKind::Uniform: {
            // U(a,b) has CoV = (b-a)/((a+b)*sqrt(3)); center at mean with
            // half-width s*mean, s = sqrt(3)*cov (clamped to keep costs > 0).
            const double s = std::min(std::sqrt(3.0) * spec.cov, 0.99);
            for (auto& c : costs) {
                c = spec.mean_seconds * rng.uniform(1.0 - s, 1.0 + s);
            }
            break;
        }
        case WorkloadKind::Gaussian:
            for (auto& c : costs) {
                c = std::max(rng.normal(spec.mean_seconds, spec.cov * spec.mean_seconds),
                             floor_cost);
            }
            break;
        case WorkloadKind::Exponential:
            for (auto& c : costs) {
                c = std::max(rng.exponential(spec.mean_seconds), floor_cost);
            }
            break;
        case WorkloadKind::Bimodal: {
            // Fraction f of iterations cost 10x the cheap cost; f derived
            // from the cov knob (f in (0, 0.5]); mean preserved.
            const double f = std::clamp(spec.cov * spec.cov / (spec.cov * spec.cov + 9.0 / 4.0),
                                        0.01, 0.5);
            const double cheap = spec.mean_seconds / (1.0 + 9.0 * f);
            for (auto& c : costs) {
                c = rng.uniform01() < f ? 10.0 * cheap : cheap;
            }
            break;
        }
        case WorkloadKind::IncreasingRamp:
            for (std::size_t i = 0; i < costs.size(); ++i) {
                const double t =
                    costs.size() > 1 ? static_cast<double>(i) / (costs.size() - 1) : 0.0;
                costs[i] = spec.mean_seconds * (0.1 + 1.8 * t);
            }
            break;
        case WorkloadKind::DecreasingRamp:
            for (std::size_t i = 0; i < costs.size(); ++i) {
                const double t =
                    costs.size() > 1 ? static_cast<double>(i) / (costs.size() - 1) : 0.0;
                costs[i] = spec.mean_seconds * (1.9 - 1.8 * t);
            }
            break;
    }
    return costs;
}

double burner_rounds_per_second() {
    // One calibration per (thread, backend): threads pinned to different
    // cores (or forced to different backends) each get their own honest
    // rate, which is exactly the heterogeneity the AWF feedback loop sees.
    thread_local double rate[3] = {0.0, 0.0, 0.0};
    const auto idx = static_cast<std::size_t>(simd::active_backend());
    if (rate[idx] > 0.0) {
        return rate[idx];
    }
    std::int64_t rounds = 1 << 14;
    for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        simd::run_burn(rounds);
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (elapsed >= 1e-3) {
            rate[idx] = static_cast<double>(rounds) / elapsed;
            return rate[idx];
        }
        rounds *= 2;
    }
}

double burn_seconds(double seconds) noexcept {
    if (seconds <= 0.0) {
        return 0.0;
    }
    const double rounds = seconds * burner_rounds_per_second();
    return simd::run_burn(std::max<std::int64_t>(static_cast<std::int64_t>(rounds), 1));
}

std::string_view workload_name(WorkloadKind k) noexcept {
    switch (k) {
        case WorkloadKind::Constant:
            return "constant";
        case WorkloadKind::Uniform:
            return "uniform";
        case WorkloadKind::Gaussian:
            return "gaussian";
        case WorkloadKind::Exponential:
            return "exponential";
        case WorkloadKind::Bimodal:
            return "bimodal";
        case WorkloadKind::IncreasingRamp:
            return "increasing";
        case WorkloadKind::DecreasingRamp:
            return "decreasing";
    }
    return "?";
}

std::optional<WorkloadKind> workload_from_string(std::string_view name) noexcept {
    return util::from_name(
        name,
        std::array{WorkloadKind::Constant, WorkloadKind::Uniform, WorkloadKind::Gaussian,
                   WorkloadKind::Exponential, WorkloadKind::Bimodal,
                   WorkloadKind::IncreasingRamp, WorkloadKind::DecreasingRamp},
        workload_name);
}

}  // namespace hdls::apps
