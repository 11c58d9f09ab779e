/// \file test_bench_workloads.cpp
/// Guards the calibration of the benchmark workloads and CLI plumbing —
/// the properties EXPERIMENTS.md claims (imbalance ordering, granularity
/// invariance under --scale, cost-model knob wiring). A regression here
/// would silently change the reproduced figures. Plus the bench JSON
/// report schema.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json_report.hpp"
#include "common/workloads.hpp"

namespace {

using namespace hdls::bench;

TEST(BenchWorkloadTest, MandelbrotIsHighlyImbalancedPsiaModerately) {
    const auto mandel = mandelbrot_paper_trace(256);
    const auto psia = psia_paper_trace(1 << 16);
    const auto ms = mandel.stats();
    const auto ps = psia.stats();
    // The paper's central workload contrast.
    EXPECT_GT(ms.cov, 1.5);
    EXPECT_LT(ps.cov, 0.6);
    EXPECT_GT(ms.cov, 2.0 * ps.cov);
}

TEST(BenchWorkloadTest, GranularityIsScaleInvariant) {
    // --scale must not change per-iteration cost magnitudes (they set the
    // contention regimes); only the loop size shrinks.
    const auto full = mandelbrot_paper_trace(512);
    const auto small = mandelbrot_paper_trace(256);
    EXPECT_NEAR(full.stats().mean, small.stats().mean, 0.25 * full.stats().mean);
    EXPECT_GT(full.iterations(), 3 * small.iterations());

    const auto psia_full = psia_paper_trace(1 << 17);
    const auto psia_small = psia_paper_trace(1 << 15);
    EXPECT_NEAR(psia_full.stats().mean, psia_small.stats().mean,
                0.25 * psia_full.stats().mean);
}

TEST(BenchWorkloadTest, MandelbrotHeavyRegionIsPastMidLoop) {
    // The viewport choice DESIGN.md documents: the expensive band must not
    // sit in the first (largest) chunks of decreasing techniques.
    const auto trace = mandelbrot_paper_trace(256);
    const auto n = trace.iterations();
    const double first_half = trace.range_cost(0, n / 2);
    const double second_half = trace.range_cost(n / 2, n);
    EXPECT_GT(second_half, 1.5 * first_half);
}

TEST(BenchWorkloadTest, TracesAreDeterministic) {
    const auto a = psia_paper_trace(1 << 14);
    const auto b = psia_paper_trace(1 << 14);
    ASSERT_EQ(a.iterations(), b.iterations());
    EXPECT_DOUBLE_EQ(a.total(), b.total());
    EXPECT_DOUBLE_EQ(a.cost(123), b.cost(123));
}

TEST(BenchCliTest, CommonOptionsBuildTheClusterSpec) {
    hdls::util::ArgParser cli("t", "t");
    add_common_options(cli);
    ASSERT_TRUE(cli.parse({"--rpn", "8", "--lock_poll_us", "7.5", "--lock_attempt_us", "0"}));
    const auto cluster = cluster_from_options(cli, 4);
    EXPECT_EQ(cluster.nodes, 4);
    EXPECT_EQ(cluster.workers_per_node, 8);
    EXPECT_DOUBLE_EQ(cluster.costs.shmem_lock_poll_us, 7.5);
    EXPECT_DOUBLE_EQ(cluster.costs.shmem_lock_attempt_us, 0.0);
    // Untouched knobs keep their defaults.
    EXPECT_DOUBLE_EQ(cluster.costs.internode_rma_us, hdls::sim::CostModel{}.internode_rma_us);
}

TEST(BenchCliTest, ScaleMapsToWorkloadSizes) {
    hdls::util::ArgParser cli("t", "t");
    add_common_options(cli);
    ASSERT_TRUE(cli.parse({"--scale", "0.25"}));
    EXPECT_EQ(scaled_mandelbrot_dim(cli), 512);  // quarter the pixels
    EXPECT_EQ(scaled_psia_points(cli), (1 << 20) / 4);
    hdls::util::ArgParser full("t", "t");
    add_common_options(full);
    ASSERT_TRUE(full.parse({}));
    EXPECT_EQ(scaled_mandelbrot_dim(full), 1024);
    EXPECT_EQ(scaled_psia_points(full), 1 << 20);
    // Out-of-range scales clamp instead of exploding.
    hdls::util::ArgParser tiny("t", "t");
    add_common_options(tiny);
    ASSERT_TRUE(tiny.parse({"--scale", "0.0000001"}));
    EXPECT_GE(scaled_mandelbrot_dim(tiny), 64);
    EXPECT_GE(scaled_psia_points(tiny), 4096);
}

TEST(BenchCliTest, NegativeCostKnobIsRejected) {
    hdls::util::ArgParser cli("t", "t");
    add_common_options(cli);
    ASSERT_TRUE(cli.parse({"--rma_us", "-1"}));
    EXPECT_THROW((void)cluster_from_options(cli, 2), std::invalid_argument);
}

// ------------------------------------------------------------ json report --

TEST(JsonReportTest, RendersParamsPointsAndSummaryStats) {
    hdls::bench::JsonReport report("bench_unit_test");
    report.add_param("scale", 0.5);
    report.add_param("label", "a \"quoted\" value");
    report.point()
        .label("nodes", std::int64_t{32})
        .sample("t_s", 1.0)
        .sample("t_s", 3.0)
        .sample("t_s", 2.0);
    const std::string doc = report.render();
    EXPECT_NE(doc.find("\"name\":\"bench_unit_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"scale\":\"0.5\""), std::string::npos);
    EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(doc.find("\"nodes\":\"32\""), std::string::npos);
    // util::summarize over {1,3,2}: median 2, count 3, min 1, max 3.
    EXPECT_NE(doc.find("\"count\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"median\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"min\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"max\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"values\":[1,3,2]"), std::string::npos);
}

TEST(JsonReportTest, WriteFailureThrows) {
    hdls::bench::JsonReport report("bench_unit_test");
    EXPECT_THROW(report.write("/nonexistent-dir/nope.json"), std::runtime_error);
}

}  // namespace
