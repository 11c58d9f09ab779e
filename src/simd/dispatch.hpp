#pragma once
/// \file dispatch.hpp
/// Runtime backend selection for the batch kernels.
///
/// The backends are compiled into backend-specific translation units
/// (kernels_scalar.cpp always; kernels_avx2.cpp when the build enables it
/// on x86 — see HDLS_HAVE_AVX2_KERNELS; kernels_neon.cpp on aarch64), and
/// this layer picks among them at runtime: compiled-in AND supported by
/// the executing CPU (__builtin_cpu_supports), narrowed by the process-
/// wide mode (HDLS_SIMD):
///
///   SimdMode::Auto        — widest usable backend (the default)
///   SimdMode::ForceScalar — scalar reference kernels, always
///   SimdMode::Native      — require a vector backend; set_mode throws if
///                           only scalar is usable (a run that *must* be
///                           vectorized should fail loudly, not silently
///                           measure scalar)
///
/// Every entry point below is also instrumented into the metrics registry
/// (hdls_simd_batch_calls_total / hdls_simd_batch_elements_total, labeled
/// by backend), so exposition shows which backend actually executed.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "simd/batch_kernels.hpp"

namespace hdls::simd {

enum class Backend {
    Scalar,
    Avx2,
    Neon,
};

enum class SimdMode {
    Auto,
    ForceScalar,
    Native,
};

[[nodiscard]] std::string_view backend_name(Backend b) noexcept;
[[nodiscard]] std::string_view mode_name(SimdMode m) noexcept;
/// Parses a mode name ("auto" | "scalar" | "native"); std::nullopt if unknown.
[[nodiscard]] std::optional<SimdMode> mode_from_string(std::string_view name) noexcept;

/// One backend's kernel entry points (function pointers into its TU).
struct KernelTable {
    int width = 1;
    void (*mandelbrot)(const MandelbrotGeom&, std::int64_t first_pixel,
                       std::int64_t count, int* out) = nullptr;
    std::int64_t (*spin_support)(const double* aos, std::int64_t begin,
                                 std::int64_t count, const SpinFilter& f,
                                 double* out_alpha, double* out_beta) = nullptr;
    std::int64_t (*spin_support_prefetch)(const double* aos, std::int64_t begin,
                                          std::int64_t count, const SpinFilter& f,
                                          double* out_alpha,
                                          double* out_beta) = nullptr;
    double (*burn)(std::int64_t rounds) = nullptr;
};

/// Whether the backend's kernels were compiled into this binary.
[[nodiscard]] bool backend_compiled(Backend b) noexcept;

/// Compiled in AND supported by the CPU we are running on.
[[nodiscard]] bool backend_usable(Backend b) noexcept;

/// The widest usable backend (Scalar is always usable).
[[nodiscard]] Backend best_backend() noexcept;

/// Every usable backend, scalar first.
[[nodiscard]] std::vector<Backend> usable_backends();

/// Sets the process-wide mode. Throws std::runtime_error for
/// SimdMode::Native when no vector backend is usable on this host.
void set_mode(SimdMode m);
[[nodiscard]] SimdMode mode() noexcept;

/// The backend the current mode resolves to, and its kernels/lane width.
[[nodiscard]] Backend active_backend() noexcept;
[[nodiscard]] int active_width() noexcept;
[[nodiscard]] const KernelTable& active_kernels() noexcept;

/// A specific backend's table; throws std::runtime_error if not usable.
[[nodiscard]] const KernelTable& kernels_for(Backend b);

// --- instrumented entry points (forward to the active backend) -----------

void run_mandelbrot_batch(const MandelbrotGeom& g, std::int64_t first_pixel,
                          std::int64_t count, int* out) noexcept;

std::int64_t run_spin_support_batch(const double* aos, std::int64_t begin,
                                    std::int64_t count, const SpinFilter& f,
                                    bool prefetch, double* out_alpha,
                                    double* out_beta) noexcept;

double run_burn(std::int64_t rounds) noexcept;

// --- honesty probe --------------------------------------------------------

/// Measured mandelbrot throughput (pixels/second) of `backend` on the
/// calling thread, from a short deterministic render repeated until
/// `min_seconds` of wall time. Results are cached per (backend, cpu) — the
/// cpu is the caller's current pinned CPU, or -1 when unpinned — so the
/// probe costs ~min_seconds once per distinct placement, not per run.
/// This is the measured per-core rate that feeds dls::awf_weights /
/// HierConfig::node_weights: AWF-* and WF see heterogeneous vector widths
/// and placements as honest speed ratios instead of assuming uniformity.
[[nodiscard]] double probe_mandelbrot_rate(Backend b, double min_seconds = 0.002);

/// Drops the probe cache (tests).
void reset_probe_cache() noexcept;

}  // namespace hdls::simd
