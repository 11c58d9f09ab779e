#include "simd/dispatch.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "metrics/metrics.hpp"
#include "util/parse.hpp"

namespace hdls::simd {

// Backend entry points, one TU each (see kernels_*.cpp). Declared here and
// referenced only when the matching backend is compiled in.
namespace detail_kernels {

void mandelbrot_scalar(const MandelbrotGeom&, std::int64_t, std::int64_t,
                       int*) noexcept;
std::int64_t spin_support_scalar(const double*, std::int64_t, std::int64_t,
                                 const SpinFilter&, double*, double*) noexcept;
std::int64_t spin_support_prefetch_scalar(const double*, std::int64_t, std::int64_t,
                                          const SpinFilter&, double*,
                                          double*) noexcept;
double burn_scalar(std::int64_t) noexcept;

#if defined(HDLS_HAVE_AVX2_KERNELS)
void mandelbrot_avx2(const MandelbrotGeom&, std::int64_t, std::int64_t,
                     int*) noexcept;
std::int64_t spin_support_avx2(const double*, std::int64_t, std::int64_t,
                               const SpinFilter&, double*, double*) noexcept;
std::int64_t spin_support_prefetch_avx2(const double*, std::int64_t, std::int64_t,
                                        const SpinFilter&, double*, double*) noexcept;
double burn_avx2(std::int64_t) noexcept;
#endif

#if defined(__ARM_NEON) && defined(__aarch64__)
void mandelbrot_neon(const MandelbrotGeom&, std::int64_t, std::int64_t,
                     int*) noexcept;
std::int64_t spin_support_neon(const double*, std::int64_t, std::int64_t,
                               const SpinFilter&, double*, double*) noexcept;
std::int64_t spin_support_prefetch_neon(const double*, std::int64_t, std::int64_t,
                                        const SpinFilter&, double*, double*) noexcept;
double burn_neon(std::int64_t) noexcept;
#endif

}  // namespace detail_kernels

namespace {

constexpr std::size_t kBackendCount = 3;

[[nodiscard]] std::size_t index_of(Backend b) noexcept {
    return static_cast<std::size_t>(b);
}

const KernelTable kScalarTable{
    1,
    &detail_kernels::mandelbrot_scalar,
    &detail_kernels::spin_support_scalar,
    &detail_kernels::spin_support_prefetch_scalar,
    &detail_kernels::burn_scalar,
};

#if defined(HDLS_HAVE_AVX2_KERNELS)
const KernelTable kAvx2Table{
    4,
    &detail_kernels::mandelbrot_avx2,
    &detail_kernels::spin_support_avx2,
    &detail_kernels::spin_support_prefetch_avx2,
    &detail_kernels::burn_avx2,
};
#endif

#if defined(__ARM_NEON) && defined(__aarch64__)
const KernelTable kNeonTable{
    2,
    &detail_kernels::mandelbrot_neon,
    &detail_kernels::spin_support_neon,
    &detail_kernels::spin_support_prefetch_neon,
    &detail_kernels::burn_neon,
};
#endif

[[nodiscard]] const KernelTable* table_of(Backend b) noexcept {
    switch (b) {
        case Backend::Scalar:
            return &kScalarTable;
        case Backend::Avx2:
#if defined(HDLS_HAVE_AVX2_KERNELS)
            return &kAvx2Table;
#else
            return nullptr;
#endif
        case Backend::Neon:
#if defined(__ARM_NEON) && defined(__aarch64__)
            return &kNeonTable;
#else
            return nullptr;
#endif
    }
    return nullptr;
}

[[nodiscard]] bool cpu_has(Backend b) noexcept {
    switch (b) {
        case Backend::Scalar:
            return true;
        case Backend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
            return __builtin_cpu_supports("avx2") != 0;
#else
            return false;
#endif
        case Backend::Neon:
#if defined(__aarch64__)
            return true;  // AdvSIMD is baseline on aarch64
#else
            return false;
#endif
    }
    return false;
}

std::atomic<SimdMode> g_mode{SimdMode::Auto};

struct BackendMetrics {
    metrics::Counter* calls = nullptr;
    metrics::Counter* elements = nullptr;
};

[[nodiscard]] BackendMetrics& backend_metrics(Backend b) {
    static std::array<BackendMetrics, kBackendCount> all = [] {
        std::array<BackendMetrics, kBackendCount> r{};
        for (std::size_t i = 0; i < kBackendCount; ++i) {
            const metrics::Labels labels{
                {"backend", std::string(backend_name(static_cast<Backend>(i)))}};
            r[i].calls = &metrics::registry().counter(
                "hdls_simd_batch_calls_total",
                "Batch kernel invocations through the SIMD dispatch layer", labels);
            r[i].elements = &metrics::registry().counter(
                "hdls_simd_batch_elements_total",
                "Elements (pixels, cloud points, burn rounds) processed by the "
                "batch kernels",
                labels);
        }
        return r;
    }();
    return all[index_of(b)];
}

/// Pinned CPU of the calling thread, or -1 when the affinity mask covers
/// more than one CPU (the probe cache key).
[[nodiscard]] int pinned_cpu_of_caller() noexcept {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
        return -1;
    }
    if (CPU_COUNT(&set) != 1) {
        return -1;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
            return c;
        }
    }
#endif
    return -1;
}

std::mutex g_probe_mutex;
std::map<std::pair<int, int>, double> g_probe_cache;

}  // namespace

std::string_view backend_name(Backend b) noexcept {
    switch (b) {
        case Backend::Scalar:
            return "scalar";
        case Backend::Avx2:
            return "avx2";
        case Backend::Neon:
            return "neon";
    }
    return "?";
}

std::string_view mode_name(SimdMode m) noexcept {
    switch (m) {
        case SimdMode::Auto:
            return "auto";
        case SimdMode::ForceScalar:
            return "scalar";
        case SimdMode::Native:
            return "native";
    }
    return "?";
}

std::optional<SimdMode> mode_from_string(std::string_view name) noexcept {
    return util::from_name(
        name, std::array{SimdMode::Auto, SimdMode::ForceScalar, SimdMode::Native}, mode_name);
}

bool backend_compiled(Backend b) noexcept { return table_of(b) != nullptr; }

bool backend_usable(Backend b) noexcept {
    return backend_compiled(b) && cpu_has(b);
}

Backend best_backend() noexcept {
    if (backend_usable(Backend::Avx2)) {
        return Backend::Avx2;
    }
    if (backend_usable(Backend::Neon)) {
        return Backend::Neon;
    }
    return Backend::Scalar;
}

std::vector<Backend> usable_backends() {
    std::vector<Backend> out{Backend::Scalar};
    if (backend_usable(Backend::Neon)) {
        out.push_back(Backend::Neon);
    }
    if (backend_usable(Backend::Avx2)) {
        out.push_back(Backend::Avx2);
    }
    return out;
}

void set_mode(SimdMode m) {
    if (m == SimdMode::Native && best_backend() == Backend::Scalar) {
        throw std::runtime_error(
            "HDLS_SIMD=native requires a vector backend, but only the scalar "
            "backend is usable on this host (compiled backends: scalar" +
            std::string(backend_compiled(Backend::Avx2) ? ", avx2" : "") +
            std::string(backend_compiled(Backend::Neon) ? ", neon" : "") +
            "); rebuild with AVX2/NEON kernels or run on a supporting CPU");
    }
    g_mode.store(m, std::memory_order_relaxed);
}

SimdMode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }

Backend active_backend() noexcept {
    return mode() == SimdMode::ForceScalar ? Backend::Scalar : best_backend();
}

int active_width() noexcept { return active_kernels().width; }

const KernelTable& active_kernels() noexcept {
    const KernelTable* t = table_of(active_backend());
    return t != nullptr ? *t : kScalarTable;
}

const KernelTable& kernels_for(Backend b) {
    if (!backend_usable(b)) {
        throw std::runtime_error("simd backend '" + std::string(backend_name(b)) +
                                 "' is not usable on this host (" +
                                 (backend_compiled(b) ? "CPU lacks the ISA"
                                                      : "not compiled in") +
                                 ")");
    }
    return *table_of(b);
}

void run_mandelbrot_batch(const MandelbrotGeom& g, std::int64_t first_pixel,
                          std::int64_t count, int* out) noexcept {
    const Backend b = active_backend();
    active_kernels().mandelbrot(g, first_pixel, count, out);
    BackendMetrics& m = backend_metrics(b);
    m.calls->inc();
    m.elements->inc(static_cast<std::uint64_t>(count));
}

std::int64_t run_spin_support_batch(const double* aos, std::int64_t begin,
                                    std::int64_t count, const SpinFilter& f,
                                    bool prefetch, double* out_alpha,
                                    double* out_beta) noexcept {
    const Backend b = active_backend();
    const KernelTable& t = active_kernels();
    const std::int64_t written =
        prefetch ? t.spin_support_prefetch(aos, begin, count, f, out_alpha, out_beta)
                 : t.spin_support(aos, begin, count, f, out_alpha, out_beta);
    BackendMetrics& m = backend_metrics(b);
    m.calls->inc();
    m.elements->inc(static_cast<std::uint64_t>(count));
    return written;
}

double run_burn(std::int64_t rounds) noexcept {
    const Backend b = active_backend();
    const double folded = active_kernels().burn(rounds);
    BackendMetrics& m = backend_metrics(b);
    m.calls->inc();
    m.elements->inc(static_cast<std::uint64_t>(rounds));
    return folded;
}

double probe_mandelbrot_rate(Backend b, double min_seconds) {
    const KernelTable& t = kernels_for(b);
    const std::pair<int, int> key{static_cast<int>(b), pinned_cpu_of_caller()};
    {
        const std::lock_guard<std::mutex> lock(g_probe_mutex);
        if (const auto it = g_probe_cache.find(key); it != g_probe_cache.end()) {
            return it->second;
        }
    }

    // A small deterministic render straddling the set boundary, so lanes
    // see the realistic mix of fast escapes and max_iter interiors.
    constexpr std::int64_t kSide = 96;
    MandelbrotGeom g;
    g.re_min = -2.0;
    g.im_min = -1.2;
    g.dx = 2.6 / static_cast<double>(kSide);
    g.dy = 2.4 / static_cast<double>(kSide);
    g.width = kSide;
    g.max_iter = 64;

    std::array<int, kSide * kSide> out{};
    const auto start = std::chrono::steady_clock::now();
    std::int64_t pixels = 0;
    double elapsed = 0.0;
    do {
        t.mandelbrot(g, 0, kSide * kSide, out.data());
        pixels += kSide * kSide;
        elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start)
                      .count();
    } while (elapsed < min_seconds);

    const double rate = static_cast<double>(pixels) / elapsed;
    const std::lock_guard<std::mutex> lock(g_probe_mutex);
    // First measurement wins on a race; later callers reuse it.
    return g_probe_cache.emplace(key, rate).first->second;
}

void reset_probe_cache() noexcept {
    const std::lock_guard<std::mutex> lock(g_probe_mutex);
    g_probe_cache.clear();
}

}  // namespace hdls::simd
