#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "apps/mandelbrot.hpp"
#include "apps/psia.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::dls::InterBackend;
using hdls::dls::Technique;

Cell make_cell(int nodes, int wpn, Technique inter, Technique intra,
               InterBackend backend = InterBackend::Centralized) {
    HierConfig cfg;
    cfg.inter = inter;
    cfg.intra = intra;
    cfg.inter_backend = backend;
    // Pinned here so the environment's HDLS_* knobs cannot change a cell.
    cfg.transport = minimpi::TransportKind::Threads;
    cfg.simd = hdls::simd::SimdMode::Auto;
    cfg.pin = minimpi::PinPolicy::None;
    std::string label = std::string(hdls::dls::technique_name(inter)) + "+" +
                        std::string(hdls::dls::technique_name(intra)) + "@" +
                        std::to_string(nodes) + "x" + std::to_string(wpn);
    if (backend == InterBackend::Sharded) {
        label += "/sharded";
    }
    return {label, ClusterShape{nodes, wpn}, cfg};
}

/// Scales `costs` so they total `serial_seconds`.
std::vector<double> scaled_to(std::vector<double> costs, double serial_seconds) {
    const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
    for (double& c : costs) {
        c *= serial_seconds / total;
    }
    return costs;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The paper's app 1: escape-time Mandelbrot over 1024^2 pixels, max_iter
/// 512, the viewport shifted by up to +-0.01 per axis from the seed.
class Mandelbrot final : public Workload {
public:
    explicit Mandelbrot(std::uint64_t seed) {
        hdls::util::Xoshiro256 rng(seed);
        const double dx = rng.uniform(-0.01, 0.01);
        const double dy = rng.uniform(-0.01, 0.01);
        cfg_.re_min += dx;
        cfg_.re_max += dx;
        cfg_.im_min += dy;
        cfg_.im_max += dy;
        for (Technique inter : {Technique::Static, Technique::GSS, Technique::TSS,
                                Technique::FAC2}) {
            for (Technique intra : {Technique::Static, Technique::GSS}) {
                cells_.push_back(make_cell(2, 2, inter, intra));
            }
        }
    }

    std::int64_t iterations() const override { return cfg_.pixels(); }
    void reset() override { image_ = std::make_unique<hdls::apps::MandelbrotImage>(cfg_); }
    void body(std::int64_t b, std::int64_t e) override { image_->compute_range(b, e); }
    void keep_as_reference() override { reference_ = image_->checksum(); }
    bool matches_reference() const override {
        return image_->uncomputed() == 0 && image_->checksum() == reference_;
    }
    std::vector<double> cost_trace(double serial_seconds) const override {
        return scaled_to(hdls::apps::mandelbrot_cost_trace(cfg_, 1.0), serial_seconds);
    }

private:
    hdls::apps::MandelbrotConfig cfg_;
    std::unique_ptr<hdls::apps::MandelbrotImage> image_;
    std::uint64_t reference_ = 0;
};

/// Constant-cost arithmetic, ~0.5 us per iteration: a dependent 64-bit LCG
/// chain of 360 +-10% steps (the jitter drawn from the seed).
class FineGrain final : public Workload {
public:
    static constexpr std::int64_t kIterations = 400'000;
    static constexpr double kMeanSteps = 360.0;

    explicit FineGrain(std::uint64_t seed) : steps_(kIterations), out_(kIterations) {
        hdls::util::Xoshiro256 rng(seed);
        for (auto& s : steps_) {
            s = static_cast<std::uint16_t>(kMeanSteps * rng.uniform(0.9, 1.1));
        }
        cells_.push_back(make_cell(2, 2, Technique::GSS, Technique::SS));
        cells_.push_back(make_cell(4, 1, Technique::SS, Technique::SS));
        cells_.push_back(make_cell(4, 1, Technique::SS, Technique::SS, InterBackend::Sharded));
    }

    std::int64_t iterations() const override { return kIterations; }
    void reset() override { std::fill(out_.begin(), out_.end(), 0.0); }
    void body(std::int64_t b, std::int64_t e) override {
        for (std::int64_t i = b; i < e; ++i) {
            auto x = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
            for (unsigned s = steps_[static_cast<std::size_t>(i)]; s > 0; --s) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            }
            out_[static_cast<std::size_t>(i)] += static_cast<double>(x >> 11);
        }
    }
    void keep_as_reference() override { reference_ = out_; }
    bool matches_reference() const override { return same_bits(out_, reference_); }
    std::vector<double> cost_trace(double serial_seconds) const override {
        return scaled_to(std::vector<double>(steps_.begin(), steps_.end()), serial_seconds);
    }

private:
    std::vector<std::uint16_t> steps_;
    std::vector<double> out_;
    std::vector<double> reference_;
};

/// The paper's app 2: one spin image per oriented point of a synthetic
/// cloud drawn from the seed; the output is each image's mass.
class PsiaAdaptive final : public Workload {
public:
    static constexpr std::size_t kPoints = 12000;

    explicit PsiaAdaptive(std::uint64_t seed)
        : cloud_(hdls::apps::PointCloud::synthetic(kPoints, seed)), mass_(kPoints) {
        cfg_.bin_size = 0.01;  // local supports, as in the figure benches
        for (Technique inter : {Technique::AWFB, Technique::AWFC}) {
            cells_.push_back(make_cell(2, 2, inter, Technique::GSS));
        }
    }

    std::int64_t iterations() const override { return static_cast<std::int64_t>(kPoints); }
    void reset() override { std::fill(mass_.begin(), mass_.end(), 0.0); }
    void body(std::int64_t b, std::int64_t e) override {
        for (std::int64_t i = b; i < e; ++i) {
            const auto p = static_cast<std::size_t>(i);
            mass_[p] += hdls::apps::compute_spin_image(cloud_, p, cfg_).mass();
        }
    }
    void keep_as_reference() override { reference_ = mass_; }
    bool matches_reference() const override { return same_bits(mass_, reference_); }
    std::vector<double> cost_trace(double serial_seconds) const override {
        // The figure benches' model (base + k * neighbourhood, k normalized
        // by cloud density), scaled to the measured serial time.
        const double density_norm = static_cast<double>(1 << 20) / static_cast<double>(kPoints);
        return scaled_to(hdls::apps::psia_cost_trace(cloud_, cfg_, 100e-6, 3e-9 * density_norm),
                         serial_seconds);
    }

private:
    hdls::apps::PointCloud cloud_;
    hdls::apps::PsiaConfig cfg_;
    std::vector<double> mass_;
    std::vector<double> reference_;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
    static const std::vector<std::string_view> names{"mandelbrot", "fine-grain",
                                                     "psia-adaptive"};
    return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
    if (name == "mandelbrot") {
        return std::make_unique<Mandelbrot>(seed);
    }
    if (name == "fine-grain") {
        return std::make_unique<FineGrain>(seed);
    }
    if (name == "psia-adaptive") {
        return std::make_unique<PsiaAdaptive>(seed);
    }
    return nullptr;
}

}  // namespace perfbench
