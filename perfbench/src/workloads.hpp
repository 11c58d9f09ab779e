#pragma once
/// \file workloads.hpp
/// The benchmark's workloads: a loop body with its inputs made from a
/// seed, an output checked against a serial reference, and the fixed set
/// of cells (shape + inter/intra techniques) the loop runs under.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace perfbench {

/// One shape + scheduling combination a workload's loop runs under (both
/// approaches run every cell).
struct Cell {
    std::string label;
    hdls::core::ClusterShape shape;
    hdls::core::HierConfig cfg;
};

class Workload {
public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual std::int64_t iterations() const = 0;
    [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }

    /// Clears the output before a loop (not timed).
    virtual void reset() = 0;
    /// The loop body; thread-safe across disjoint ranges. Every body
    /// accumulates into its output, so a range executed twice breaks the
    /// reference match.
    virtual void body(std::int64_t begin, std::int64_t end) = 0;
    /// Stores the current output as the serial reference.
    virtual void keep_as_reference() = 0;
    /// Whether the current output equals the serial reference exactly.
    [[nodiscard]] virtual bool matches_reference() const = 0;
    /// Per-iteration simulator costs, calibrated so they total
    /// `serial_seconds` (the measured single-thread loop time).
    [[nodiscard]] virtual std::vector<double> cost_trace(double serial_seconds) const = 0;

protected:
    std::vector<Cell> cells_;
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Builds a workload's inputs from `seed`; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace perfbench
