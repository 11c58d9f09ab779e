#pragma once
/// \file psia.hpp
/// PSIA — the parallel spin-image application of the paper's evaluation.
///
/// The spin-image algorithm (Johnson, CMU 1997) turns a 3D oriented point
/// cloud into per-point 2D histograms ("spin images") used as rotation-
/// invariant shape descriptors. For an oriented point (p, n) every cloud
/// point x maps to cylindrical coordinates
///     beta  = n . (x - p)                    (signed height)
///     alpha = sqrt(|x - p|^2 - beta^2)       (radial distance)
/// and is bilinearly binned into a W x H image clipped to a support region.
/// PSIA parallelizes the loop over oriented points; the per-iteration cost
/// is proportional to the point's local neighbourhood size, which gives the
/// *moderate, spatially-correlated* load imbalance the paper contrasts with
/// Mandelbrot's extreme imbalance.
///
/// The paper's input meshes are not public, so PointCloud::synthetic builds
/// a parametric scene (torus with non-uniform angular density plus a dense
/// spherical lobe plus noise) with the same qualitative density profile —
/// see DESIGN.md, substitution table.

#include <cstdint>
#include <span>
#include <vector>

namespace hdls::apps {

/// Minimal 3-vector (double precision).
struct Vec3 {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    friend Vec3 operator+(Vec3 a, Vec3 b) noexcept { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
    friend Vec3 operator-(Vec3 a, Vec3 b) noexcept { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
    friend Vec3 operator*(double s, Vec3 v) noexcept { return {s * v.x, s * v.y, s * v.z}; }

    [[nodiscard]] double dot(Vec3 o) const noexcept { return x * o.x + y * o.y + z * o.z; }
    [[nodiscard]] double norm2() const noexcept { return dot(*this); }
    [[nodiscard]] double norm() const noexcept;
    [[nodiscard]] Vec3 normalized() const noexcept;
};

/// A surface sample: position + unit normal.
struct OrientedPoint {
    Vec3 position;
    Vec3 normal;
};

/// Spin-image generation parameters.
struct PsiaConfig {
    int image_width = 16;   ///< alpha bins
    int image_height = 16;  ///< beta bins (symmetric around beta = 0)
    double bin_size = 0.05;
    /// Cosine threshold of the support angle between the center normal and
    /// a candidate's normal; -1 accepts every point (no angle filter).
    double support_angle_cos = -1.0;

    [[nodiscard]] double alpha_max() const noexcept { return image_width * bin_size; }
    [[nodiscard]] double beta_max() const noexcept { return image_height * bin_size / 2.0; }
};

/// One W x H spin image (row-major; row 0 = beta_max edge as in Johnson).
class SpinImage {
public:
    SpinImage(int width, int height);

    /// Bilinearly deposits one support point at (alpha, beta); weight
    /// falling outside the image is clipped (edge behaviour of the paper).
    void accumulate(double alpha, double beta, const PsiaConfig& cfg) noexcept;

    [[nodiscard]] int width() const noexcept { return width_; }
    [[nodiscard]] int height() const noexcept { return height_; }
    [[nodiscard]] float at(int row, int col) const;
    [[nodiscard]] std::span<const float> data() const noexcept { return bins_; }

    /// Total deposited mass (= number of fully-interior support points plus
    /// clipped fractions).
    [[nodiscard]] double mass() const noexcept;

private:
    int width_;
    int height_;
    std::vector<float> bins_;
};

/// An oriented point cloud.
class PointCloud {
public:
    [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
    [[nodiscard]] const OrientedPoint& operator[](std::size_t i) const { return points_[i]; }
    [[nodiscard]] std::span<const OrientedPoint> points() const noexcept { return points_; }

    void add(const OrientedPoint& p) { points_.push_back(p); }

    /// Deterministic synthetic scene: a torus (major radius 1, minor 0.35)
    /// with angularly non-uniform sampling, a dense spherical lobe (~15% of
    /// points) and Gaussian surface noise. `n` total points.
    [[nodiscard]] static PointCloud synthetic(std::size_t n, std::uint64_t seed);

private:
    std::vector<OrientedPoint> points_;
};

/// Whether cloud point `candidate` lies in the support of `center`.
[[nodiscard]] bool in_support(const OrientedPoint& center, const OrientedPoint& candidate,
                              const PsiaConfig& cfg) noexcept;

/// Brute-force support size (tests / cost ground truth).
[[nodiscard]] std::size_t support_count(const PointCloud& cloud, std::size_t center,
                                        const PsiaConfig& cfg) noexcept;

/// The PSIA loop body: the spin image of oriented point `center`. The
/// candidate filter (angle + cylinder tests) runs through the SIMD batch
/// kernels (src/simd/), N candidates per step, with the point-cloud gather
/// software-prefetched ahead of use (util/prefetch.hpp); survivors are
/// binned in candidate order, so results are bit-identical to the scalar
/// reference loop on every backend.
[[nodiscard]] SpinImage compute_spin_image(const PointCloud& cloud, std::size_t center,
                                           const PsiaConfig& cfg);

/// Same, with the intra-chunk software prefetch explicitly on or off (the
/// three-argument overload prefetches).
[[nodiscard]] SpinImage compute_spin_image(const PointCloud& cloud, std::size_t center,
                                           const PsiaConfig& cfg, bool use_prefetch);

/// Uniform spatial hash grid for O(1) neighbourhood-size estimates; used to
/// derive the simulator cost trace in O(N) instead of O(N^2).
class SupportGrid {
public:
    SupportGrid(const PointCloud& cloud, double cell_size);

    /// Number of cloud points in the 3x3x3 cell neighbourhood of `p` — an
    /// upper-ish estimate of |support| for supports smaller than cell_size.
    [[nodiscard]] std::size_t neighbourhood_count(Vec3 p) const noexcept;

private:
    [[nodiscard]] std::int64_t cell_key(std::int64_t cx, std::int64_t cy,
                                        std::int64_t cz) const noexcept;

    double cell_;
    Vec3 origin_;
    std::int64_t nx_ = 0, ny_ = 0, nz_ = 0;
    std::vector<std::uint32_t> counts_;
};

/// Virtual-cost trace for the simulator: cost of PSIA loop iteration i =
/// base + per_neighbour * neighbourhood(i). This is the PSIA workload of
/// Figures 4-7 (moderate CoV, spatially correlated).
[[nodiscard]] std::vector<double> psia_cost_trace(const PointCloud& cloud, const PsiaConfig& cfg,
                                                  double base_seconds,
                                                  double seconds_per_neighbour);

}  // namespace hdls::apps
