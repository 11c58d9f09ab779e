/// \file test_knobs.cpp
/// The HDLS_* knob table (core/env_config.hpp): every row's parser walked
/// through its documented spellings, the empty string and garbage; the
/// one error contract; the program-scope merge (config_from_env); the
/// run-scope precedence rule (resolve_run_config and run_hierarchical);
/// and docs/knobs.md kept identical to the rendered table.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hdls.hpp"

namespace {

using hdls::core::EnvKnobs;
using hdls::core::HierConfig;
using hdls::core::KnobRow;
using hdls::core::KnobScope;
using hdls::dls::Technique;

/// Unsets every knob for the test's duration and restores the caller's
/// environment afterwards.
class CleanEnv {
public:
    CleanEnv() {
        for (const KnobRow& row : hdls::core::knob_table()) {
            if (const char* v = std::getenv(row.name.data())) {
                saved_.emplace_back(row.name.data(), v);
            }
            ::unsetenv(row.name.data());
        }
    }
    ~CleanEnv() {
        for (const KnobRow& row : hdls::core::knob_table()) {
            ::unsetenv(row.name.data());
        }
        for (const auto& [name, value] : saved_) {
            ::setenv(name.c_str(), value.c_str(), 1);
        }
    }
    CleanEnv(const CleanEnv&) = delete;
    CleanEnv& operator=(const CleanEnv&) = delete;

private:
    std::vector<std::pair<std::string, std::string>> saved_;
};

template <class T>
std::string str(const T& v) {
    std::ostringstream out;
    out << v;
    return out.str();
}

std::string flag(bool v) { return v ? "1" : "0"; }

template <class T, class F>
std::string opt(const std::optional<T>& v, F render) {
    return v ? render(*v) : "unset";
}

/// One table row's expectations: its field rendered canonically, the
/// rendering when unset (the default), documented spellings with their
/// renderings, and garbage that must be rejected ("" always is).
struct KnobCase {
    std::function<std::string(const EnvKnobs&)> value;
    std::string unset;
    std::vector<std::pair<std::string, std::string>> spellings;
    std::vector<std::string> garbage;
};

const std::map<std::string, KnobCase, std::less<>>& cases() {
    using hdls::core::ChaosSpec;
    static const std::map<std::string, KnobCase, std::less<>> kCases = {
        {"HDLS_SCHEDULE",
         {[](const EnvKnobs& e) { return opt(e.schedule, hdls::core::format_schedule); },
          "unset",
          {{"GSS+SS,min_chunk=2", "GSS+SS,min_chunk=2"},
           {"WF+GSS", "WF+GSS"},
           {"fac2 + gss + ss", "FAC2+GSS+SS"}},
          {"garbage", "gss", "gss+bogus+ss", "GSS+SS,min_chunk=0"}}},
        {"HDLS_TOPOLOGY",
         {[](const EnvKnobs& e) { return opt(e.topology, hdls::core::format_topology); },
          "unset",
          {{"nodes=2,cores=4", "nodes=2,cores=4"}, {" racks = 2, nodes=4 ", "racks=2,nodes=4"}},
          {"garbage", "racks=0", "nodes=2,,cores=4"}}},
        {"HDLS_INTER_BACKEND",
         {[](const EnvKnobs& e) {
              return opt(e.inter_backend,
                         [](auto b) { return std::string(hdls::dls::inter_backend_name(b)); });
          },
          "unset",
          {{"sharded", "sharded"}, {"CENTRALIZED", "centralized"}, {" Sharded ", "sharded"}},
          {"hexagonal", "nonsense"}}},
        {"HDLS_PREFETCH",
         {[](const EnvKnobs& e) { return opt(e.prefetch, flag); },
          "unset",
          {{"1", "1"}, {"on", "1"}, {"FALSE", "0"}, {"0", "0"}},
          {"maybe"}}},
        {"HDLS_TRACE",
         {[](const EnvKnobs& e) { return opt(e.trace, flag); },
          "unset",
          {{"1", "1"}, {" On ", "1"}, {"yes", "1"}, {"no", "0"}, {"OFF", "0"}},
          {"maybe", "2"}}},
        {"HDLS_TRANSPORT",
         {[](const EnvKnobs& e) { return std::string(minimpi::transport_name(e.transport)); },
          "threads",
          {{"threads", "threads"}, {"SHM", "shm"}, {"Threads", "threads"}, {" shm ", "shm"}},
          {"tcp", "openmpi"}}},
        {"HDLS_SIMD",
         {[](const EnvKnobs& e) { return std::string(hdls::simd::mode_name(e.simd)); },
          "auto",
          {{" Auto ", "auto"}, {"scalar", "scalar"}, {"NATIVE", "native"}},
          {"avx512", "vector", "on"}}},
        {"HDLS_PIN",
         {[](const EnvKnobs& e) { return std::string(minimpi::pin_policy_name(e.pin)); },
          "none",
          {{" Compact ", "compact"}, {"SCATTER", "scatter"}, {"none", "none"}},
          {"numa", "cores", "1"}}},
        {"HDLS_METRICS",
         {[](const EnvKnobs& e) { return flag(e.metrics); },
          "0",
          {{"1", "1"}, {"off", "0"}, {"True", "1"}},
          {"sometimes"}}},
        {"HDLS_METRICS_PERIOD_MS",
         {[](const EnvKnobs& e) { return str(e.metrics_period.count()); },
          "100",
          {{" 250 ", "250"}, {"7", "7"}},
          {"0", "-5", "fast", "100x"}}},
        {"HDLS_METRICS_FILE",
         {[](const EnvKnobs& e) { return e.metrics_file; },
          "hdls-metrics.prom",
          {{"/tmp/custom.prom", "/tmp/custom.prom"}},
          {}}},  // any non-empty path is a path
        {"HDLS_LEASE",
         {[](const EnvKnobs& e) { return flag(e.lease); },
          "0",
          {{"on", "1"}, {"0", "0"}, {" YES ", "1"}},
          {"maybe"}}},
        {"HDLS_LEASE_K",
         {[](const EnvKnobs& e) { return str(e.lease_k); },
          "8",
          {{"2.5", "2.5"}, {" 4 ", "4"}},
          {"-1", "0", "x", "2.5x"}}},
        {"HDLS_HEARTBEAT_TIMEOUT_MS",
         {[](const EnvKnobs& e) { return str(e.heartbeat_timeout.count()); },
          "1000",
          {{"250", "250"}},
          {"0", "-1", "soon"}}},
        {"HDLS_CHAOS",
         {[](const EnvKnobs& e) {
              return opt(e.chaos, [](const ChaosSpec& c) {
                  return "kill:" + str(c.kill_rank) + "@" + str(c.at_fraction * 100.0) + "%";
              });
          },
          "unset",
          {{"kill:2@75%", "kill:2@75%"}, {"KILL: 1 @ 50", "kill:1@50%"}},
          {"garbage", "kill:1@150%", "kill:-1@50%", "die:1@50%"}}},
        {"HDLS_MAX_JOBS",
         {[](const EnvKnobs& e) { return str(e.max_jobs); },
          "4",
          {{"3", "3"}, {" 8 ", "8"}},
          {"0", "-1", "many"}}},
        {"HDLS_JOB_QUEUE_DEPTH",
         {[](const EnvKnobs& e) { return str(e.job_queue_depth); },
          "16",
          {{"0", "0"}, {"32", "32"}},
          {"-1", "deep"}}},
    };
    return kCases;
}

/// The message read_env throws for `value`, or "" when it does not throw.
std::string rejection(const KnobRow& row, const std::string& value) {
    ::setenv(row.name.data(), value.c_str(), 1);
    try {
        (void)hdls::core::read_env(row.scope);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(KnobTableTest, EveryRowHasACaseAndEveryCaseARow) {
    std::size_t rows = 0;
    for (const KnobRow& row : hdls::core::knob_table()) {
        EXPECT_TRUE(cases().count(row.name) == 1) << row.name << " has no test case";
        ++rows;
    }
    EXPECT_EQ(rows, cases().size());
    EXPECT_EQ(rows, 17u);
}

TEST(KnobTableTest, EveryRowParsesItsSpellingsAndRejectsEmptyAndGarbage) {
    const CleanEnv clean;
    for (const KnobRow& row : hdls::core::knob_table()) {
        SCOPED_TRACE(std::string(row.name));
        const auto it = cases().find(row.name);
        ASSERT_NE(it, cases().end());
        const KnobCase& c = it->second;

        // Unset gives the default, and the documented default is the code's.
        ::unsetenv(row.name.data());
        EXPECT_EQ(c.value(hdls::core::read_env(row.scope)), c.unset);
        if (row.scope != KnobScope::Program) {
            std::string doc(row.fallback);
            std::erase(doc, '`');
            EXPECT_EQ(doc, c.unset == "unset" ? "none" : c.unset);
        }

        for (const auto& [text, expected] : c.spellings) {
            ::setenv(row.name.data(), text.c_str(), 1);
            EXPECT_EQ(c.value(hdls::core::read_env(row.scope)), expected) << "'" << text << "'";
        }

        std::vector<std::string> rejected = c.garbage;
        rejected.emplace_back("");
        for (const std::string& bad : rejected) {
            const std::string what = rejection(row, bad);
            ASSERT_FALSE(what.empty()) << "'" << bad << "' was accepted";
            EXPECT_NE(what.find(row.name), std::string::npos) << what;
            EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
            EXPECT_NE(what.find(row.grammar), std::string::npos) << what;
            EXPECT_EQ(what.find('\n'), std::string::npos) << "error must be one line";
        }
        ::unsetenv(row.name.data());
    }
}

TEST(KnobTableTest, ReadingAScopeIgnoresTheOtherScopes) {
    const CleanEnv clean;
    ::setenv("HDLS_MAX_JOBS", "garbage", 1);
    EXPECT_NO_THROW((void)hdls::core::read_env(KnobScope::Run));
    EXPECT_NO_THROW((void)hdls::core::read_env(KnobScope::Program));
    EXPECT_THROW((void)hdls::core::read_env(KnobScope::Service), std::invalid_argument);
}

TEST(KnobTableTest, DocsTableIsTheRenderedTable) {
    std::ifstream doc(std::string(HDLS_SOURCE_DIR) + "/docs/knobs.md");
    ASSERT_TRUE(doc) << "cannot open docs/knobs.md";
    std::string table;
    for (std::string line; std::getline(doc, line);) {
        if (line.rfind('|', 0) == 0) {
            table += line + "\n";
        }
    }
    EXPECT_EQ(table, hdls::core::render_knob_table())
        << "docs/knobs.md is out of date; its table must read:\n"
        << hdls::core::render_knob_table();
}

// --------------------------------------------------- program scope ----

TEST(ConfigFromEnvTest, KnobsReplaceOnlyTheirFields) {
    const CleanEnv clean;
    HierConfig base;
    base.inter = Technique::Static;
    base.intra = Technique::Static;
    base.trace = true;
    base.node_weights = {2.0, 1.0};
    base.fac_sigma = 0.5;

    // Unset keeps the program's choice.
    const HierConfig unset = hdls::core::config_from_env(base);
    EXPECT_EQ(unset.inter, Technique::Static);
    EXPECT_EQ(unset.intra, Technique::Static);
    EXPECT_TRUE(unset.trace);
    EXPECT_TRUE(unset.topology.empty());

    // HDLS_SCHEDULE replaces the schedule only: tracing, WF node weights,
    // FAC inputs and everything else survive the merge.
    ::setenv("HDLS_SCHEDULE", "GSS+SS,min_chunk=2", 1);
    const HierConfig cfg = hdls::core::config_from_env(base);
    EXPECT_EQ(cfg.inter, Technique::GSS);
    EXPECT_EQ(cfg.intra, Technique::SS);
    EXPECT_EQ(cfg.min_chunk, 2);
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(cfg.node_weights, (std::vector<double>{2.0, 1.0}));
    EXPECT_EQ(cfg.fac_sigma, 0.5);

    ::setenv("HDLS_SCHEDULE", "FAC2+GSS+SS", 1);
    ::setenv("HDLS_TOPOLOGY", "racks=2,nodes=2,cores=2", 1);
    ::setenv("HDLS_INTER_BACKEND", "sharded", 1);
    ::setenv("HDLS_PREFETCH", "1", 1);
    ::setenv("HDLS_TRACE", "0", 1);
    const HierConfig deep = hdls::core::config_from_env(base);
    ASSERT_EQ(deep.levels.size(), 3u);
    EXPECT_EQ(deep.levels[0].technique, Technique::FAC2);
    EXPECT_EQ(hdls::core::format_topology(deep.topology), "racks=2,nodes=2,cores=2");
    EXPECT_EQ(deep.inter_backend, hdls::dls::InterBackend::Sharded);
    EXPECT_TRUE(deep.prefetch);
    EXPECT_FALSE(deep.trace);

    // A malformed schedule fails instead of falling back to the program's.
    ::setenv("HDLS_SCHEDULE", "garbage", 1);
    EXPECT_THROW((void)hdls::core::config_from_env(base), std::invalid_argument);
}

// ------------------------------------------------------- run scope ----

TEST(RunPrecedenceTest, UnsetFieldsTakeTheDefaults) {
    const CleanEnv clean;
    const HierConfig cfg =
        hdls::core::resolve_run_config(HierConfig{}, hdls::core::read_env(KnobScope::Run));
    EXPECT_EQ(cfg.transport, minimpi::TransportKind::Threads);
    EXPECT_EQ(cfg.simd, hdls::simd::SimdMode::Auto);
    EXPECT_EQ(cfg.pin, minimpi::PinPolicy::None);
    EXPECT_EQ(cfg.lease, false);
    EXPECT_EQ(cfg.lease_k, 8.0);
    EXPECT_EQ(cfg.heartbeat_timeout, std::chrono::milliseconds(1000));
    EXPECT_FALSE(cfg.chaos.has_value());
}

TEST(RunPrecedenceTest, TheEnvironmentFillsUnsetFields) {
    const CleanEnv clean;
    ::setenv("HDLS_TRANSPORT", "shm", 1);
    ::setenv("HDLS_SIMD", "scalar", 1);
    ::setenv("HDLS_PIN", "compact", 1);
    ::setenv("HDLS_LEASE", "1", 1);
    ::setenv("HDLS_LEASE_K", "4", 1);
    ::setenv("HDLS_HEARTBEAT_TIMEOUT_MS", "250", 1);
    ::setenv("HDLS_CHAOS", "kill:1@50%", 1);
    const HierConfig cfg =
        hdls::core::resolve_run_config(HierConfig{}, hdls::core::read_env(KnobScope::Run));
    EXPECT_EQ(cfg.transport, minimpi::TransportKind::Shm);
    EXPECT_EQ(cfg.simd, hdls::simd::SimdMode::ForceScalar);
    EXPECT_EQ(cfg.pin, minimpi::PinPolicy::Compact);
    EXPECT_EQ(cfg.lease, true);
    EXPECT_EQ(cfg.lease_k, 4.0);
    EXPECT_EQ(cfg.heartbeat_timeout, std::chrono::milliseconds(250));
    ASSERT_TRUE(cfg.chaos.has_value());
    EXPECT_EQ(cfg.chaos->kill_rank, 1);
}

TEST(RunPrecedenceTest, TheCallersFieldBeatsTheEnvironment) {
    const CleanEnv clean;
    ::setenv("HDLS_TRANSPORT", "shm", 1);
    ::setenv("HDLS_LEASE", "1", 1);
    ::setenv("HDLS_LEASE_K", "4", 1);
    ::setenv("HDLS_HEARTBEAT_TIMEOUT_MS", "250", 1);
    ::setenv("HDLS_CHAOS", "kill:1@50%", 1);
    HierConfig explicit_cfg;
    explicit_cfg.transport = minimpi::TransportKind::Threads;
    explicit_cfg.lease = false;
    explicit_cfg.lease_k = 2.0;
    explicit_cfg.heartbeat_timeout = std::chrono::milliseconds(900);
    explicit_cfg.chaos = hdls::core::ChaosSpec{0, 0.25};
    const HierConfig cfg =
        hdls::core::resolve_run_config(explicit_cfg, hdls::core::read_env(KnobScope::Run));
    EXPECT_EQ(cfg.transport, minimpi::TransportKind::Threads);
    EXPECT_EQ(cfg.lease, false);
    EXPECT_EQ(cfg.lease_k, 2.0);
    EXPECT_EQ(cfg.heartbeat_timeout, std::chrono::milliseconds(900));
    ASSERT_TRUE(cfg.chaos.has_value());
    EXPECT_EQ(cfg.chaos->kill_rank, 0);
}

/// The same rule end to end: an explicit lease = false keeps a run
/// lease-free under HDLS_LEASE=1; leaving it unset lets the knob in.
TEST(RunPrecedenceTest, ExplicitLeaseOffBeatsHdlsLeaseInARun) {
    const CleanEnv clean;
    ::setenv("HDLS_LEASE", "1", 1);
    const auto leases = [](const HierConfig& cfg) {
        const auto report = hdls::parallel_for(hdls::core::ClusterShape{1, 2},
                                               hdls::core::Approach::MpiMpi, cfg, 64,
                                               [](std::int64_t, std::int64_t) {});
        EXPECT_EQ(report.executed_iterations(), 64);
        return report.metrics.counter_total("hdls_lease_acquires_total");
    };
    HierConfig off;
    off.lease = false;
    EXPECT_EQ(leases(off), 0u);
    EXPECT_GT(leases(HierConfig{}), 0u);
}

// --------------------------------------------------- service scope ----

/// Submits a job that blocks until released, then a second one: true when
/// the second is admitted (run or queued), false when it is rejected.
bool admits_a_second_job(const hdls::core::JobService::Config& cfg) {
    hdls::core::JobService service(cfg);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    hdls::core::LoopJob blocker;
    blocker.iterations = 2;
    blocker.body = [released](std::int64_t, std::int64_t) { released.wait(); };
    const std::uint64_t first = service.submit(std::move(blocker));
    hdls::core::LoopJob second;
    second.iterations = 2;
    second.body = [](std::int64_t, std::int64_t) {};
    bool admitted = true;
    try {
        (void)service.submit(std::move(second));
    } catch (const minimpi::Error& e) {
        EXPECT_EQ(e.code(), minimpi::ErrorCode::Resource);
        admitted = false;
    }
    release.set_value();
    (void)service.wait(first);
    service.drain();
    return admitted;
}

TEST(ServicePrecedenceTest, ExplicitLimitsBeatTheEnvironment) {
    const CleanEnv clean;
    hdls::core::JobService::Config cfg;
    cfg.shape = hdls::core::ClusterShape{1, 1};
    cfg.max_active = 1;
    // The environment fills the unset depth: no queue, so a second job
    // cannot wait behind the first.
    ::setenv("HDLS_JOB_QUEUE_DEPTH", "0", 1);
    EXPECT_FALSE(admits_a_second_job(cfg));
    // An explicit depth wins over it.
    cfg.queue_depth = 1;
    EXPECT_TRUE(admits_a_second_job(cfg));
    // Explicit limits are validated like the knobs.
    cfg.max_active = 0;
    EXPECT_THROW(hdls::core::JobService{cfg}, std::invalid_argument);
    cfg.max_active = 1;
    cfg.queue_depth = -1;
    EXPECT_THROW(hdls::core::JobService{cfg}, std::invalid_argument);
}

}  // namespace
