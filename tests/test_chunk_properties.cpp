/// \file test_chunk_properties.cpp
/// Property-based chunk-sequence tests over one (technique x N x P x
/// min_chunk) grid, run on the single chunk calculation of each technique:
///  * dls::StepTable, which the queues read after one atomic step claim,
///    tiles [0, N) exactly for every supports_step_indexed technique, in
///    step order, with each step's clamped chunk_size_for_step hint;
///  * the remaining-count-based replay (the adaptive queue's CAS
///    protocol) tiles [0, N) exactly for FAC, WF and AWF-B/C/D/E across a
///    grid of weights.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"

namespace {

using namespace hdls::dls;

/// `sigma` > 0 also sets a scheduling overhead, so FSC and FAC take their
/// probabilistic forms; sigma = 0 exercises their fallbacks.
LoopParams make_params(std::int64_t n, int p, std::int64_t min_chunk, double sigma = 0.0) {
    LoopParams lp;
    lp.total_iterations = n;
    lp.workers = p;
    lp.min_chunk = min_chunk;
    lp.sigma = sigma;
    lp.overhead_h = sigma > 0.0 ? 0.01 : 0.0;
    return lp;
}

constexpr double kSigmas[] = {0.0, 0.2};

struct GridCase {
    Technique technique;
    std::int64_t n;
    int p;
    std::int64_t min_chunk;
};

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
    std::string name(technique_name(info.param.technique));
    for (char& c : name) {
        if (c == '-') {
            c = '_';
        }
    }
    return name + "_N" + std::to_string(info.param.n) + "_P" + std::to_string(info.param.p) +
           "_m" + std::to_string(info.param.min_chunk);
}

constexpr std::int64_t kNs[] = {0, 1, 7, 100, 1000, 4096, 54321, 100000, 400000};
constexpr int kPs[] = {1, 2, 3, 4, 16, 61};
constexpr std::int64_t kMinChunks[] = {1, 3, 8};

/// Every grid point for the techniques `form` accepts.
std::vector<GridCase> grid(bool (*form)(Technique) noexcept) {
    std::vector<GridCase> cases;
    for (const Technique t : all_techniques()) {
        if (!form(t)) {
            continue;
        }
        for (const std::int64_t n : kNs) {
            for (const int p : kPs) {
                for (const std::int64_t m : kMinChunks) {
                    cases.push_back({t, n, p, m});
                }
            }
        }
    }
    return cases;
}

// ------------------------------------------------------- step table

/// The queues hand out StepTable ranges after one atomic step claim, so
/// the table must be exactly the clamped hint sequence: step s starts
/// where step s-1 ended and gets min(hint_s, N - start_s) iterations.
class StepTableTiling : public ::testing::TestWithParam<GridCase> {};

TEST_P(StepTableTiling, RangesTileInStepOrderWithClampedHintSizes) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    for (const double sigma : kSigmas) {
        SCOPED_TRACE(::testing::Message() << "sigma " << sigma);
        const LoopParams lp = make_params(n, p, min_chunk, sigma);
        const StepTable table(tech, lp);
        std::int64_t start = 0;
        for (std::int64_t step = 0; step < table.steps(); ++step) {
            const StepRange range = table.at(step);
            ASSERT_EQ(range.start, start) << "gap or overlap at step " << step;
            ASSERT_EQ(range.size, std::min(chunk_size_for_step(tech, lp, step), n - start))
                << "step " << step;
            ASSERT_GE(range.size, 1) << "step " << step;
            start += range.size;
        }
        ASSERT_EQ(start, n) << "iteration space not fully covered";
    }
}

INSTANTIATE_TEST_SUITE_P(StepIndexed, StepTableTiling,
                         ::testing::ValuesIn(grid(supports_step_indexed)), grid_name);

TEST(StepTableTest, RemainingBasedTechniquesAreRejected) {
    for (const Technique t : all_techniques()) {
        if (!supports_step_indexed(t)) {
            EXPECT_THROW(StepTable(t, make_params(100, 4, 1)), std::invalid_argument)
                << technique_name(t);
        }
    }
}

// -------------------------------------------- remaining-based replay

/// Serial model of the adaptive queue's CAS protocol: a single remaining
/// cell, each take recomputing its share from the current count. `weight`
/// plays the requester's (fixed) weight.
std::vector<StepRange> drain_remaining_based(Technique t, const LoopParams& p, double weight) {
    std::vector<StepRange> out;
    std::int64_t remaining = p.total_iterations;
    while (remaining > 0) {
        const std::int64_t size = remaining_based_chunk(t, p, remaining, weight);
        EXPECT_GT(size, 0) << "protocol stalled with " << remaining << " remaining";
        if (size <= 0) {
            break;
        }
        out.push_back({p.total_iterations - remaining, size});
        remaining -= size;
    }
    return out;
}

class RemainingBasedReplay : public ::testing::TestWithParam<GridCase> {};

TEST_P(RemainingBasedReplay, ReplayTilesTheIterationSpaceExactly) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    for (const double sigma : kSigmas) {
        const LoopParams lp = make_params(n, p, min_chunk, sigma);
        for (const double weight : {0.01, 0.5, 1.0, 2.5}) {
            SCOPED_TRACE(::testing::Message() << "sigma " << sigma << ", weight " << weight);
            std::int64_t start = 0;
            for (const StepRange& c : drain_remaining_based(tech, lp, weight)) {
                ASSERT_EQ(c.start, start) << "gap or overlap";
                ASSERT_GE(c.size, 1) << "non-positive chunk";
                start += c.size;
            }
            ASSERT_EQ(start, n) << "iteration space not fully covered";
        }
    }
}

TEST_P(RemainingBasedReplay, ChunkNeverExceedsRemainingNorUndershootsMinChunk) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const LoopParams lp = make_params(n, p, min_chunk);
    for (std::int64_t r : {n, n / 2 + 1, min_chunk + 1, min_chunk, std::int64_t{1}}) {
        if (r <= 0) {
            continue;
        }
        const auto size = remaining_based_chunk(tech, lp, r, 1.0);
        EXPECT_LE(size, r);
        EXPECT_GE(size, std::min(r, min_chunk));
    }
    EXPECT_EQ(remaining_based_chunk(tech, lp, 0, 1.0), 0);
    EXPECT_EQ(remaining_based_chunk(tech, lp, -5, 1.0), 0);
}

INSTANTIATE_TEST_SUITE_P(RemainingBased, RemainingBasedReplay,
                         ::testing::ValuesIn(grid(supports_remaining_based)), grid_name);

// ------------------------------------------------- predicate coherence

TEST(TechniquePredicates, EveryTechniqueHasExactlyOneDistributedForm) {
    for (const Technique t : all_techniques()) {
        EXPECT_TRUE(supports_internode(t)) << technique_name(t);
        EXPECT_NE(supports_step_indexed(t), supports_remaining_based(t))
            << technique_name(t) << ": the two distributed forms must not overlap";
    }
}

TEST(TechniquePredicates, AdaptiveTechniquesAreRemainingBased) {
    for (const Technique t : all_techniques()) {
        if (is_adaptive(t)) {
            EXPECT_TRUE(supports_remaining_based(t)) << technique_name(t);
        }
    }
}

}  // namespace
