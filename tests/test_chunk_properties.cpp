/// \file test_chunk_properties.cpp
/// Property-based chunk-sequence tests over a (technique x N x P x
/// min_chunk) grid:
///  * centralized schedulers tile [0, N) exactly — no gap, no overlap,
///    all sizes positive;
///  * the step-indexed replay (shared step + scheduled counters with
///    clamping) tiles [0, N) exactly for every supports_step_indexed
///    technique, and reproduces the centralized scheduler bit-for-bit for
///    the techniques whose two forms are exact (STATIC, SS, FSC, TSS,
///    RND); GSS/FAC2/TFSS use documented closed-form approximations whose
///    divergence is bounded here;
///  * dls::StepTable, which the queues read after one atomic step claim,
///    is exactly that clamped sequence, in step order;
///  * the remaining-count-based replay (the adaptive queue's CAS
///    protocol) tiles [0, N) exactly for FAC, WF and AWF-B/C/D/E across a
///    grid of weights.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"
#include "dls/scheduler.hpp"

namespace {

using namespace hdls::dls;

LoopParams make_params(std::int64_t n, int p, std::int64_t min_chunk) {
    LoopParams lp;
    lp.total_iterations = n;
    lp.workers = p;
    lp.min_chunk = min_chunk;
    return lp;
}

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

constexpr std::int64_t kNs[] = {1, 7, 100, 4096, 54321};
constexpr int kPs[] = {1, 2, 4, 16};
constexpr std::int64_t kMinChunks[] = {1, 3, 8};

void expect_exact_tiling(const std::vector<Assignment>& chunks, std::int64_t n,
                         const char* what) {
    std::int64_t expected_start = 0;
    for (const auto& c : chunks) {
        ASSERT_EQ(c.start, expected_start) << what << ": gap or overlap at step " << c.step;
        ASSERT_GE(c.size, 1) << what << ": non-positive chunk at step " << c.step;
        expected_start += c.size;
    }
    ASSERT_EQ(expected_start, n) << what << ": iteration space not fully covered";
}

// ----------------------------------------------- centralized schedulers

class CentralizedTiling : public ::testing::TestWithParam<GridCase> {};

TEST_P(CentralizedTiling, ChunksTileTheIterationSpaceExactly) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const auto chunks = enumerate_chunks(tech, make_params(n, p, min_chunk));
    expect_exact_tiling(chunks, n, "centralized");
}

std::vector<GridCase> centralized_cases() {
    std::vector<GridCase> cases;
    for (const Technique t : all_techniques()) {
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

INSTANTIATE_TEST_SUITE_P(AllTechniques, CentralizedTiling,
                         ::testing::ValuesIn(centralized_cases()), grid_name);

// ------------------------------------------------- step-indexed replay

/// Serial model of the distributed protocol: shared step + scheduled
/// counters, hint clamped against the remaining count.
std::vector<Assignment> drain_step_indexed(Technique t, const LoopParams& p) {
    std::vector<Assignment> out;
    std::int64_t step_counter = 0;
    std::int64_t scheduled = 0;
    while (scheduled < p.total_iterations) {
        const std::int64_t step = step_counter++;
        const std::int64_t hint = chunk_size_for_step(t, p, step);
        if (hint <= 0) {
            break;  // would spin forever: caught by the coverage assert
        }
        const std::int64_t size = std::min(hint, p.total_iterations - scheduled);
        out.push_back({scheduled, size, step});
        scheduled += size;
    }
    return out;
}

class StepIndexedReplay : public ::testing::TestWithParam<GridCase> {};

TEST_P(StepIndexedReplay, ReplayTilesTheIterationSpaceExactly) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const auto chunks = drain_step_indexed(tech, make_params(n, p, min_chunk));
    expect_exact_tiling(chunks, n, "step-indexed");
}

TEST_P(StepIndexedReplay, ReplayMatchesCentralizedScheduler) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const LoopParams lp = make_params(n, p, min_chunk);
    const auto replay = drain_step_indexed(tech, lp);
    const auto central = enumerate_chunks(tech, lp);
    switch (tech) {
        case Technique::Static:
        case Technique::SS:
        case Technique::FSC:
        case Technique::TSS:
        case Technique::RND:
            // Both forms compute from the step index alone: bit-for-bit.
            ASSERT_EQ(replay.size(), central.size());
            for (std::size_t i = 0; i < replay.size(); ++i) {
                EXPECT_EQ(replay[i].start, central[i].start) << "chunk " << i;
                EXPECT_EQ(replay[i].size, central[i].size) << "chunk " << i;
            }
            break;
        default:
            // GSS/FAC2/TFSS replace the exact remaining count with a
            // closed-form estimate; the replay may split tail iterations
            // differently but must stay within one extra batch of chunks.
            EXPECT_GE(replay.size(), central.size() / 2);
            EXPECT_LE(replay.size(),
                      2 * central.size() + 2 * static_cast<std::size_t>(p));
            break;
    }
}

std::vector<GridCase> step_indexed_grid() {
    std::vector<GridCase> cases;
    for (const Technique t : all_techniques()) {
        if (!supports_step_indexed(t)) {
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

INSTANTIATE_TEST_SUITE_P(StepIndexed, StepIndexedReplay,
                         ::testing::ValuesIn(step_indexed_grid()), grid_name);

// ------------------------------------------------------- step table

/// The queues hand out StepTable ranges after one atomic step claim, so
/// the table must be exactly the clamped hint sequence: step s starts
/// where step s-1 ended and gets min(hint_s, N - start_s) iterations.
class StepTableTiling : public ::testing::TestWithParam<GridCase> {};

TEST_P(StepTableTiling, RangesTileInStepOrderWithClampedHintSizes) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const LoopParams lp = make_params(n, p, min_chunk);
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
    EXPECT_EQ(start, n) << "iteration space not fully covered";
}

std::vector<GridCase> step_table_grid() {
    std::vector<GridCase> cases;
    for (const Technique t : all_techniques()) {
        if (!supports_step_indexed(t)) {
            continue;
        }
        for (const std::int64_t n : {0, 1, 7, 1000, 400000}) {
            for (const int p : {1, 2, 3, 4, 16}) {
                for (const std::int64_t m : {1, 8}) {
                    cases.push_back({t, n, p, m});
                }
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(StepIndexed, StepTableTiling, ::testing::ValuesIn(step_table_grid()),
                         grid_name);

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
std::vector<Assignment> drain_remaining_based(Technique t, const LoopParams& p,
                                              double weight) {
    std::vector<Assignment> out;
    std::int64_t remaining = p.total_iterations;
    std::int64_t step = 0;
    while (remaining > 0) {
        const std::int64_t size = remaining_based_chunk(t, p, remaining, weight);
        EXPECT_GT(size, 0) << "protocol stalled with " << remaining << " remaining";
        if (size <= 0) {
            break;
        }
        out.push_back({p.total_iterations - remaining, size, step++});
        remaining -= size;
    }
    return out;
}

class RemainingBasedReplay : public ::testing::TestWithParam<GridCase> {};

TEST_P(RemainingBasedReplay, ReplayTilesTheIterationSpaceExactly) {
    const auto& [tech, n, p, min_chunk] = GetParam();
    const LoopParams lp = make_params(n, p, min_chunk);
    for (const double weight : {0.01, 0.5, 1.0, 2.5}) {
        const auto chunks = drain_remaining_based(tech, lp, weight);
        expect_exact_tiling(chunks, n, "remaining-based");
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

std::vector<GridCase> remaining_based_grid() {
    std::vector<GridCase> cases;
    for (const Technique t : all_techniques()) {
        if (!supports_remaining_based(t)) {
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

INSTANTIATE_TEST_SUITE_P(RemainingBased, RemainingBasedReplay,
                         ::testing::ValuesIn(remaining_based_grid()), grid_name);

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
