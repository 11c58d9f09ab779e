#pragma once
/// \file params.hpp
/// Parameters describing one self-scheduled loop execution.

#include <cstdint>

namespace hdls::dls {

/// Parameters for scheduling a loop of `total_iterations` over `workers`
/// processing elements. Everything beyond the first two fields has sensible
/// defaults; technique-specific fields are ignored by other techniques.
struct LoopParams {
    std::int64_t total_iterations = 0;  ///< N >= 0
    int workers = 1;                    ///< P >= 1

    // --- FAC / FSC probabilistic inputs -------------------------------
    double sigma = 0.0;  ///< stddev of iteration execution time (seconds)
    double mu = 1.0;     ///< mean iteration execution time (seconds)
    double overhead_h = 0.0;  ///< per-chunk scheduling overhead (seconds), FSC

    // --- FSC ------------------------------------------------------------
    std::int64_t fsc_chunk = 0;  ///< explicit chunk; 0 = derive from formula

    // --- TSS / TFSS -------------------------------------------------------
    /// First/last chunk sizes; 0 means the canonical defaults
    /// F = ceil(N / (2P)), L = 1.
    std::int64_t tss_first = 0;
    std::int64_t tss_last = 0;

    // --- RND ---------------------------------------------------------------
    std::uint64_t seed = 0x5eedULL;  ///< per-loop RNG seed
    std::int64_t rnd_lo = 0;         ///< 0 = default max(1, N/(100P))
    std::int64_t rnd_hi = 0;         ///< 0 = default max(lo, N/(2P))

    /// Smallest chunk any dynamic technique may emit (>= 1).
    std::int64_t min_chunk = 1;

    /// Throws std::invalid_argument on inconsistent values.
    void validate() const;
};

}  // namespace hdls::dls
