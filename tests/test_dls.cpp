/// \file test_dls.cpp
/// Unit tests for the DLS technique library, run against the one chunk
/// calculation each technique has: golden sequences and shape properties
/// of dls::StepTable (STATIC, SS, FSC, GSS, TSS, FAC2, TFSS, RND), and
/// the remaining-count form of FAC, WF and AWF-B/C/D/E (remaining_based_chunk,
/// awf_weights, AwfWeightCache) that the adaptive queue and the simulator
/// share. The exact-tiling grids live in test_chunk_properties.cpp; the
/// literature GSS trace is checked on ompsim's `guided` in test_ompsim.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"
#include "dls/technique.hpp"

namespace {

using namespace hdls::dls;

LoopParams make_params(std::int64_t n, int p) {
    LoopParams lp;
    lp.total_iterations = n;
    lp.workers = p;
    lp.sigma = 0.2;  // give FAC/FSC plausible probabilistic inputs
    lp.mu = 1.0;
    lp.overhead_h = 0.01;
    return lp;
}

/// Chunk sizes of `t`'s StepTable, in step order.
std::vector<std::int64_t> table_sizes(Technique t, const LoopParams& p) {
    const StepTable table(t, p);
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(table.steps()));
    for (std::int64_t step = 0; step < table.steps(); ++step) {
        out.push_back(table.at(step).size);
    }
    return out;
}

/// Chunk sizes of a remaining-count technique drained by one requester of
/// fixed `weight`: each take recomputes its share from the current count.
std::vector<std::int64_t> remaining_sizes(Technique t, const LoopParams& p,
                                          double weight = 1.0) {
    std::vector<std::int64_t> out;
    for (std::int64_t r = p.total_iterations; r > 0;) {
        const std::int64_t size = remaining_based_chunk(t, p, r, weight);
        out.push_back(size);
        r -= size;
    }
    return out;
}

// ------------------------------------------------------------------ registry

TEST(TechniqueRegistryTest, NameRoundTrip) {
    for (const Technique t : all_techniques()) {
        const auto parsed = technique_from_string(technique_name(t));
        ASSERT_TRUE(parsed.has_value()) << technique_name(t);
        EXPECT_EQ(*parsed, t);
    }
}

TEST(TechniqueRegistryTest, ParseIsCaseInsensitiveAndDashTolerant) {
    EXPECT_EQ(technique_from_string("gss"), Technique::GSS);
    EXPECT_EQ(technique_from_string("Fac2"), Technique::FAC2);
    EXPECT_EQ(technique_from_string("awfb"), Technique::AWFB);
    EXPECT_EQ(technique_from_string("AWF-E"), Technique::AWFE);
    EXPECT_EQ(technique_from_string("nope"), std::nullopt);
}

TEST(TechniqueRegistryTest, PaperTechniqueSets) {
    EXPECT_EQ(paper_internode_techniques().size(), 4u);
    EXPECT_EQ(paper_intranode_techniques().size(), 5u);
    // Table 1: only STATIC, SS, GSS map onto the OpenMP schedule clause.
    EXPECT_TRUE(openmp_supports(Technique::Static));
    EXPECT_TRUE(openmp_supports(Technique::SS));
    EXPECT_TRUE(openmp_supports(Technique::GSS));
    EXPECT_FALSE(openmp_supports(Technique::TSS));
    EXPECT_FALSE(openmp_supports(Technique::FAC2));
}

TEST(TechniqueRegistryTest, StepIndexedSupportMatchesFormulaAvailability) {
    const LoopParams p = make_params(1000, 4);
    for (const Technique t : all_techniques()) {
        if (supports_step_indexed(t)) {
            EXPECT_GT(chunk_size_for_step(t, p, 0), 0) << technique_name(t);
        } else {
            EXPECT_THROW((void)chunk_size_for_step(t, p, 0), std::invalid_argument)
                << technique_name(t);
        }
    }
}

TEST(TechniqueRegistryTest, AdaptiveFlags) {
    EXPECT_TRUE(is_adaptive(Technique::AWFB));
    EXPECT_TRUE(is_adaptive(Technique::AWFE));
    EXPECT_FALSE(is_adaptive(Technique::WF));
    EXPECT_FALSE(is_adaptive(Technique::GSS));
}

// ------------------------------------------------------------ golden values

TEST(GoldenSequenceTest, StaticSplitsEvenly) {
    EXPECT_EQ(table_sizes(Technique::Static, make_params(10, 4)),
              (std::vector<std::int64_t>{3, 3, 2, 2}));
}

TEST(GoldenSequenceTest, StaticExactDivision) {
    EXPECT_EQ(table_sizes(Technique::Static, make_params(100, 4)),
              (std::vector<std::int64_t>{25, 25, 25, 25}));
}

TEST(GoldenSequenceTest, SsIsAllOnes) {
    EXPECT_EQ(table_sizes(Technique::SS, make_params(17, 4)), std::vector<std::int64_t>(17, 1));
}

TEST(GoldenSequenceTest, GssClosedFormExample) {
    // N=100, P=4: ceil(25 * 0.75^s), clamped to what is left at the tail.
    // The exact-remaining trace 25,19,14,11,... is ompsim's `guided`
    // (test_ompsim.cpp); the step-indexed form front-loads slightly more.
    EXPECT_EQ(table_sizes(Technique::GSS, make_params(100, 4)),
              (std::vector<std::int64_t>{25, 19, 15, 11, 8, 6, 5, 4, 3, 2, 2}));
}

TEST(GoldenSequenceTest, Fac2HalvesEveryBatch) {
    // N=100, P=4: batch b holds P chunks of ceil(N / (2^(b+1) P)):
    // 13, 7, 4, then 2s until the loop is covered.
    EXPECT_EQ(table_sizes(Technique::FAC2, make_params(100, 4)),
              (std::vector<std::int64_t>{13, 13, 13, 13, 7, 7, 7, 7, 4, 4, 4, 4, 2, 2}));
}

TEST(GoldenSequenceTest, Fac2FirstChunkIsHalfOfGss) {
    const LoopParams p = make_params(1 << 20, 16);
    EXPECT_EQ(StepTable(Technique::FAC2, p).at(0).size * 2,
              StepTable(Technique::GSS, p).at(0).size);
}

TEST(GoldenSequenceTest, TssStartsAtHalfStaticAndDecreasesLinearly) {
    const auto sizes = table_sizes(Technique::TSS, make_params(1000, 4));
    ASSERT_GE(sizes.size(), 3u);
    EXPECT_EQ(sizes[0], 125);  // F = ceil(N/2P)
    EXPECT_EQ(sizes[1], 117);  // F - delta, delta = (125-1)/15
    EXPECT_EQ(sizes[2], 108);
    // Linear decrease means (almost) constant difference until the tail.
    for (std::size_t i = 0; i + 2 < sizes.size(); ++i) {
        EXPECT_GE(sizes[i], sizes[i + 1]);
    }
}

TEST(GoldenSequenceTest, FacWithZeroSigmaHoldsNothingBack) {
    // sigma = 0 gives b = 0 and x = 1: every take is ceil(R/P), the exact
    // GSS trace for N=100, P=4.
    LoopParams p = make_params(100, 4);
    p.sigma = 0.0;
    EXPECT_EQ(remaining_sizes(Technique::FAC, p),
              (std::vector<std::int64_t>{25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1}));
}

TEST(GoldenSequenceTest, FacChunksShrinkWithVariance) {
    LoopParams p = make_params(10000, 8);
    p.sigma = 0.5;
    p.mu = 1.0;
    const auto sizes = remaining_sizes(Technique::FAC, p);
    // The first take must hold back work (smaller than N/P) and sizes must
    // be non-increasing as R falls.
    EXPECT_LT(sizes.front(), 10000 / 8);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
        EXPECT_GE(sizes[i], sizes[i + 1]);
    }
}

TEST(GoldenSequenceTest, FscKruskalWeissFormula) {
    LoopParams p = make_params(10000, 16);
    p.sigma = 0.1;
    p.overhead_h = 0.001;
    // (sqrt(2)*N*h / (sigma*P*sqrt(ln P)))^(2/3) = 3.04... -> ceil = 4
    EXPECT_EQ(fsc_chunk(p), 4);
    const auto sizes = table_sizes(Technique::FSC, p);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
        EXPECT_EQ(sizes[i], 4);
    }
}

TEST(GoldenSequenceTest, FscExplicitChunkWins) {
    LoopParams p = make_params(100, 4);
    p.fsc_chunk = 7;
    const auto sizes = table_sizes(Technique::FSC, p);
    EXPECT_EQ(sizes.front(), 7);
    EXPECT_EQ(sizes.back(), 100 % 7);  // tail clamp
}

TEST(GoldenSequenceTest, TfssBatchesDecreaseLinearly) {
    const auto sizes = table_sizes(Technique::TFSS, make_params(4000, 4));
    ASSERT_GE(sizes.size(), 8u);
    // Within a batch sizes are equal; across batches they decrease.
    EXPECT_EQ(sizes[0], sizes[1]);
    EXPECT_EQ(sizes[1], sizes[2]);
    EXPECT_EQ(sizes[2], sizes[3]);
    EXPECT_GT(sizes[0], sizes[4]);
    EXPECT_GT(sizes[4], sizes[8]);
}

// -------------------------------------------------------------- WF and AWF

TEST(WeightedTest, WfRespectsWeightRatios) {
    const LoopParams p = make_params(120, 3);
    const auto w = normalize_static_weights({2.0, 1.0, 1.0}, 3);
    // Half of R=120 is 60; normalized weights {1.5, .75, .75} -> 30, 15, 15.
    EXPECT_EQ(remaining_based_chunk(Technique::WF, p, 120, w[0]), 30);
    EXPECT_EQ(remaining_based_chunk(Technique::WF, p, 120, w[1]), 15);
    EXPECT_EQ(remaining_based_chunk(Technique::WF, p, 120, w[2]), 15);
}

TEST(WeightedTest, WfDefaultsToEqualWeights) {
    const LoopParams p = make_params(80, 4);
    for (const double w : normalize_static_weights({}, 4)) {
        EXPECT_EQ(w, 1.0);
        EXPECT_EQ(remaining_based_chunk(Technique::WF, p, 80, w), 10);  // half of 80, equal shares
    }
}

TEST(WeightedTest, AwfStartsNeutralThenAdapts) {
    const LoopParams p = make_params(1 << 16, 2);
    std::vector<NodeFeedback> feedback(2);
    const auto bootstrap = awf_weights(Technique::AWFB, feedback);
    EXPECT_EQ(bootstrap, (std::vector<double>{1.0, 1.0}));  // no feedback yet -> equal
    const std::int64_t first = remaining_based_chunk(Technique::AWFB, p, p.total_iterations, 1.0);
    // Node 0 is reported 4x faster: rates 4:1 -> normalized weights 1.6 : 0.4.
    feedback[0] = {first, 1.0, 0.0};
    feedback[1] = {first, 4.0, 0.0};
    const auto w = awf_weights(Technique::AWFB, feedback);
    EXPECT_NEAR(w[0], 1.6, 1e-12);
    EXPECT_NEAR(w[1], 0.4, 1e-12);
    const std::int64_t r = p.total_iterations - 2 * first;
    const auto b0 = remaining_based_chunk(Technique::AWFB, p, r, w[0]);
    const auto b1 = remaining_based_chunk(Technique::AWFB, p, r, w[1]);
    EXPECT_NEAR(static_cast<double>(b0) / static_cast<double>(b1), 4.0, 0.01);
}

/// Snapshot calls and chunks of one requester draining a loop through its
/// AwfWeightCache, and the halving batches the drain crossed.
struct CadenceCount {
    std::int64_t chunks = 0;
    std::int64_t snapshots = 0;
    std::int64_t batches = 0;
};

CadenceCount drain_counting_snapshots(Technique t) {
    const LoopParams p = make_params(1 << 12, 4);
    const std::vector<NodeFeedback> feedback(4);
    AwfWeightCache cache;
    CadenceCount count;
    std::int64_t last_batch = -1;
    for (std::int64_t r = p.total_iterations; r > 0;) {
        const double w = cache.weight(t, 0, p.total_iterations, r, [&] {
            ++count.snapshots;
            return feedback;
        });
        if (halving_batch_index(p.total_iterations, r) != last_batch) {
            last_batch = halving_batch_index(p.total_iterations, r);
            ++count.batches;
        }
        r -= remaining_based_chunk(t, p, r, w);
        ++count.chunks;
    }
    return count;
}

TEST(WeightedTest, AwfBdRefreshOnBatchAdvanceAwfCeOnEveryChunk) {
    for (const Technique t : {Technique::AWFB, Technique::AWFD}) {
        const CadenceCount count = drain_counting_snapshots(t);
        EXPECT_EQ(count.snapshots, count.batches) << technique_name(t);
        EXPECT_LT(count.snapshots, count.chunks) << technique_name(t);
    }
    for (const Technique t : {Technique::AWFC, Technique::AWFE}) {
        const CadenceCount count = drain_counting_snapshots(t);
        EXPECT_EQ(count.snapshots, count.chunks) << technique_name(t);
    }
}

TEST(WeightedTest, AwfBDefersMidBatchFeedbackAwfCReactsAtOnce) {
    constexpr std::int64_t kN = 1 << 16;
    std::vector<NodeFeedback> feedback(2);
    const auto snapshot = [&] { return feedback; };
    for (const Technique t : {Technique::AWFB, Technique::AWFC}) {
        AwfWeightCache cache;
        feedback.assign(2, NodeFeedback{});
        EXPECT_EQ(cache.weight(t, 1, kN, kN, snapshot), 1.0);
        // Mid-batch feedback makes node 1 look terribly slow.
        feedback[0] = {1000, 1.0, 0.0};
        feedback[1] = {100, 100.0, 0.0};
        const double mid_batch = cache.weight(t, 1, kN, kN - 1000, snapshot);
        if (t == Technique::AWFB) {
            EXPECT_EQ(mid_batch, 1.0);  // same batch -> same (neutral) weight
        } else {
            EXPECT_LT(mid_batch, 1.0);
        }
        // The next halving batch brings AWF-B up to date.
        EXPECT_LT(cache.weight(t, 1, kN, kN / 2, snapshot), 1.0) << technique_name(t);
    }
}

TEST(WeightedTest, AwfDeRatesIncludeOverheadAwfBcRatesDoNot) {
    // Identical compute rates, but node 1 suffers heavy scheduling overhead.
    const std::vector<NodeFeedback> feedback = {{1000, 2.0, 0.0}, {1000, 2.0, 6.0}};
    for (const Technique t : {Technique::AWFB, Technique::AWFC}) {
        const auto w = awf_weights(t, feedback);
        EXPECT_DOUBLE_EQ(w[0], w[1]) << technique_name(t);  // overhead invisible
    }
    for (const Technique t : {Technique::AWFD, Technique::AWFE}) {
        const auto w = awf_weights(t, feedback);
        EXPECT_GT(w[0], w[1]) << technique_name(t);  // AWF-D/E see it
    }
}

// ----------------------------------------------------------------------- RND

TEST(RndTest, DeterministicPerSeed) {
    LoopParams p = make_params(100000, 8);
    p.seed = 99;
    const auto a = table_sizes(Technique::RND, p);
    EXPECT_EQ(a, table_sizes(Technique::RND, p));
    p.seed = 100;
    EXPECT_NE(a, table_sizes(Technique::RND, p));
}

TEST(RndTest, SizesWithinBounds) {
    LoopParams p = make_params(100000, 8);
    p.rnd_lo = 50;
    p.rnd_hi = 200;
    const auto sizes = table_sizes(Technique::RND, p);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {  // last may be clamped
        EXPECT_GE(sizes[i], 50);
        EXPECT_LE(sizes[i], 200);
    }
}

// ------------------------------------------------------------- validation

TEST(ValidationTest, BadParamsThrow) {
    LoopParams p;
    p.total_iterations = -1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = make_params(10, 0);
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = make_params(10, 2);
    p.min_chunk = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = make_params(10, 2);
    p.mu = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

// -------------------------------------------------------- shape properties

TEST(ShapePropertyTest, DecreasingTechniquesAreNonIncreasing) {
    for (const Technique t : {Technique::GSS, Technique::TSS, Technique::FAC2}) {
        const auto sizes = table_sizes(t, make_params(100000, 16));
        for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
            EXPECT_GE(sizes[i], sizes[i + 1]) << technique_name(t) << " at " << i;
        }
    }
}

TEST(ShapePropertyTest, GssFirstChunkIsStaticChunk) {
    EXPECT_EQ(StepTable(Technique::GSS, make_params(64000, 16)).at(0).size, 64000 / 16);
}

TEST(ShapePropertyTest, Fac2ClosedFormMatchesBatchPattern) {
    // Within each batch of P steps the size is constant and halves (up to
    // ceiling) across batches.
    const LoopParams lp = make_params(1 << 20, 16);
    for (std::int64_t b = 0; b < 10; ++b) {
        const auto first = fac2_chunk(lp, b * 16);
        const auto last = fac2_chunk(lp, b * 16 + 15);
        EXPECT_EQ(first, last);
        const auto next_batch = fac2_chunk(lp, (b + 1) * 16);
        EXPECT_LE(next_batch * 2, first + 1);
    }
}

TEST(ShapePropertyTest, SchedulingStepCountsOrdering) {
    // SS takes the most steps, STATIC the fewest; GSS sits in between —
    // the overhead-vs-balance spectrum from the paper's Section 2.
    const LoopParams p = make_params(10000, 8);
    const auto n_static = StepTable(Technique::Static, p).steps();
    const auto n_gss = StepTable(Technique::GSS, p).steps();
    const auto n_ss = StepTable(Technique::SS, p).steps();
    EXPECT_LT(n_static, n_gss);
    EXPECT_LT(n_gss, n_ss);
    EXPECT_EQ(n_ss, 10000);
    EXPECT_EQ(n_static, 8);
}

TEST(ShapePropertyTest, MinChunkHonoredByDynamicTechniques) {
    LoopParams p = make_params(10000, 8);
    p.min_chunk = 16;
    for (const Technique t : {Technique::SS, Technique::GSS, Technique::TSS, Technique::FAC2}) {
        const auto sizes = table_sizes(t, p);
        for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {  // tail may clamp
            EXPECT_GE(sizes[i], 16) << technique_name(t);
        }
    }
}

}  // namespace
