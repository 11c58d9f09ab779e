#pragma once
/// \file bookkeeping.hpp
/// The benchmark's own arithmetic: sample statistics (median and the
/// tail rule) and the attribution of one loop's wall time to per-worker
/// parts from the body spans recorded around every loop-body call.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the two middle values for even sizes).
/// Precondition: `values` is non-empty.
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of a sample that still has at least `beyond`
/// samples above it: with the sample sorted ascending, the value at index
/// n - 1 - beyond. Undefined (nullopt) for samples of `beyond` or fewer.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< 100 * (rank of `value`) / n
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> values, std::size_t beyond = 10);

/// One loop-body call on one worker, in seconds since the loop call.
struct Span {
    double t0 = 0.0;
    double t1 = 0.0;
};

/// One worker's share of a loop's wall time W (the time from the call into
/// the executor to its return). With L the latest body end over all
/// workers, the five parts tile [0, W]:
///   startup   = first body start              (0 -> first call)
///   compute   = sum of body durations
///   sched     = sum of gaps between consecutive body calls
///   idle_tail = L - this worker's last body end
///   teardown  = W - L
/// A worker that never ran the body spends [0, L] as idle tail.
struct WorkerParts {
    double startup = 0.0;
    double compute = 0.0;
    double sched = 0.0;
    double idle_tail = 0.0;
    double teardown = 0.0;
    std::int64_t calls = 0;

    [[nodiscard]] double total() const noexcept {
        return startup + compute + sched + idle_tail + teardown;
    }
};

struct LoopParts {
    double wall = 0.0;
    double last_body_end = 0.0;  ///< L
    std::vector<WorkerParts> workers;
    /// False when a worker's spans overlap, run backwards or fall outside
    /// [0, W] — the spans then cannot be one worker's sequential calls.
    bool consistent = true;

    /// Every worker's parts sum to `wall` within `tolerance` (relative)
    /// and the spans were consistent.
    [[nodiscard]] bool closes(double tolerance = 0.01) const noexcept;
};

/// Attributes a loop's wall time from per-worker span lists (each in call
/// order). `workers` is the executor's worker count; slots beyond the
/// recorded lists count as workers that never ran the body.
[[nodiscard]] LoopParts attribute(const std::vector<std::vector<Span>>& spans, int workers,
                                  double wall);

}  // namespace perfbench
