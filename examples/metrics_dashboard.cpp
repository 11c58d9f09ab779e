/// \file metrics_dashboard.cpp
/// ASCII live view of the always-on runtime metrics: runs an imbalanced
/// hierarchical loop in the background and renders one dashboard frame per
/// sampler tick — per-level acquire/steal rates, histogram sparklines and
/// the watchdog state.
///
///   $ ./metrics_dashboard                       # live until the run ends
///   $ ./metrics_dashboard --frames 3            # bounded (CI smoke)
///   $ HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 ./metrics_dashboard
///   $ HDLS_INTER_BACKEND=sharded ./metrics_dashboard
///
/// The dashboard consumes the same MetricsSampler series an external
/// scraper would read from the exposition file — nothing here has a side
/// channel into the executors.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hdls.hpp"
#include "metrics/metrics.hpp"
#include "metrics/sampler.hpp"
#include "util/cli.hpp"

namespace {

using hdls::metrics::Snapshot;
using hdls::metrics::SnapshotEntry;

/// Eight-level unicode sparkline over the nonempty prefix of a histogram's
/// per-bucket counts (log2 bucket b holds values in [2^(b-1), 2^b - 1]).
std::string sparkline(const std::vector<std::uint64_t>& buckets) {
    static const char* kBlocks[] = {"_", "▁", "▂", "▃",
                                    "▄", "▅", "▆", "▇"};
    std::size_t last = 0;
    std::uint64_t peak = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] > 0) {
            last = b;
            peak = std::max(peak, buckets[b]);
        }
    }
    if (peak == 0) {
        return "(empty)";
    }
    std::string out;
    for (std::size_t b = 0; b <= last; ++b) {
        if (buckets[b] == 0) {
            out += kBlocks[0];
            continue;
        }
        // Log scale: one count is still visible next to a million.
        const double h = std::log2(static_cast<double>(buckets[b]) + 1.0) /
                         std::log2(static_cast<double>(peak) + 1.0);
        const int idx = 1 + static_cast<int>(h * 6.0 + 0.5);
        out += kBlocks[std::min(idx, 7)];
    }
    return out;
}

std::uint64_t counter_at(const Snapshot& s, std::string_view name,
                         const hdls::metrics::Labels& labels) {
    const SnapshotEntry* e = s.find(name, labels);
    return e != nullptr ? e->value : 0;
}

/// Per-second rate of a counter between two samples.
double rate(const Snapshot& cur, const Snapshot& prev, double dt, std::string_view name,
            const hdls::metrics::Labels& labels) {
    if (dt <= 0.0) {
        return 0.0;
    }
    const std::uint64_t c = counter_at(cur, name, labels);
    const std::uint64_t p = counter_at(prev, name, labels);
    return c > p ? static_cast<double>(c - p) / dt : 0.0;
}

void render_frame(std::ostream& os, const Snapshot& cur, const Snapshot& prev, double t,
                  double dt, bool clear) {
    if (clear) {
        os << "\033[2J\033[H";
    }
    const SnapshotEntry* workers = cur.find("hdls_workers_active");
    char head[96];
    std::snprintf(head, sizeof(head),
                  "hdls metrics dashboard  t=%.1fs  workers_active=%lld\n", t,
                  static_cast<long long>(workers != nullptr ? workers->gauge : 0));
    os << head;
    os << "  level  acquires/s  steals/s  steal%   pops/s   latency (log2 ns)\n";
    for (int level = 0; level < static_cast<int>(hdls::metrics::kMaxLevels); ++level) {
        const hdls::metrics::Labels l = {{"level", std::to_string(level)}};
        const std::uint64_t total_acquires =
            counter_at(cur, "hdls_sched_acquires_total", l) +
            counter_at(cur, "hdls_sched_steals_total", l) +
            counter_at(cur, "hdls_sched_pops_total", l);
        if (total_acquires == 0) {
            continue;  // level not present in this topology
        }
        const double acq = rate(cur, prev, dt, "hdls_sched_acquires_total", l);
        const double steals = rate(cur, prev, dt, "hdls_sched_steals_total", l);
        const double pops = rate(cur, prev, dt, "hdls_sched_pops_total", l);
        const double steal_pct = acq + steals > 0.0 ? 100.0 * steals / (acq + steals) : 0.0;
        const SnapshotEntry* lat = cur.find("hdls_sched_acquire_latency_ns", l);
        char line[128];
        std::snprintf(line, sizeof(line), "  %5d  %10.1f  %8.1f  %5.1f%%  %8.1f   ", level,
                      acq, steals, steal_pct, pops);
        os << line << (lat != nullptr ? sparkline(lat->buckets) : "(empty)") << "\n";
    }
    if (const SnapshotEntry* exec = cur.find("hdls_exec_chunk_ns")) {
        os << "  chunk exec (log2 ns):      " << sparkline(exec->buckets) << "  count="
           << exec->count << "\n";
    }
    os << "  chunks/s: " << static_cast<std::int64_t>(
              rate(cur, prev, dt, "hdls_exec_chunks_total", {}))
       << "  lock retries: " << counter_at(cur, "hdls_window_lock_retries_total", {})
       << "  cas retries: " << counter_at(cur, "hdls_window_cas_retries_total", {});
    const std::uint64_t stalls = counter_at(cur, "hdls_watchdog_stalls_total", {});
    os << "  watchdog: " << (stalls == 0 ? "ok" : "STALLS=" + std::to_string(stalls))
       << "\n";
    os.flush();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hdls;

    util::ArgParser cli("metrics_dashboard",
                        "ASCII live view of the always-on runtime metrics");
    cli.add_int("frames", 0, "stop after this many frames (0 = until the run ends)");
    cli.add_int("period-ms", 200, "sampler period / frame interval");
    cli.add_int("iterations", 30000, "loop size of the background workload");
    cli.add_flag("no-clear", "never clear the screen (one frame block per tick)");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    core::ClusterShape shape;
    shape.nodes = 2;
    shape.workers_per_node = 4;

    core::HierConfig cfg;  // GSS+GSS unless HDLS_SCHEDULE says otherwise
    try {
        cfg = core::config_from_env(cfg);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (!cfg.topology.empty()) {
        shape = core::shape_from_topology(cfg.topology);
    }

    const std::int64_t n = cli.get_int("iterations");
    const auto period = std::chrono::milliseconds(cli.get_int("period-ms"));
    const std::int64_t max_frames = cli.get_int("frames");
    const bool clear = !cli.get_flag("no-clear") && ::isatty(STDOUT_FILENO) != 0;

    // The workload under observation: mildly imbalanced sleep per iteration,
    // running on its own thread while the main thread renders frames.
    std::atomic<bool> done{false};
    std::thread run_thread([&] {
        const auto body = [](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i) {
                std::this_thread::sleep_for(std::chrono::microseconds(40 * (1 + i % 5)));
            }
        };
        (void)core::run_hierarchical(shape, core::Approach::MpiMpi, cfg, n, body);
        done.store(true, std::memory_order_release);
    });

    metrics::MetricsSampler sampler(metrics::registry(), period);
    sampler.start();

    std::int64_t frames = 0;
    Snapshot prev = metrics::registry().snapshot();
    double prev_t = 0.0;
    while (!done.load(std::memory_order_acquire) &&
           (max_frames == 0 || frames < max_frames)) {
        std::this_thread::sleep_for(period);
        const std::vector<metrics::MetricsSampler::Sample> series = sampler.series();
        if (series.empty()) {
            continue;
        }
        const metrics::MetricsSampler::Sample& last = series.back();
        render_frame(std::cout, last.snapshot, prev, last.t_seconds,
                     last.t_seconds - prev_t, clear);
        prev = last.snapshot;
        prev_t = last.t_seconds;
        ++frames;
    }

    run_thread.join();
    sampler.stop();

    // Closing frame over the whole run (rates vs. the empty registry are
    // meaningless here, so diff against the first retained sample).
    const std::vector<metrics::MetricsSampler::Sample> series = sampler.series();
    if (series.size() >= 2) {
        render_frame(std::cout, series.back().snapshot, series.front().snapshot,
                     series.back().t_seconds,
                     series.back().t_seconds - series.front().t_seconds, clear);
    }
    std::cout << "run complete: " << frames << " live frame(s), "
              << series.size() << " sample(s) retained\n";
    return 0;
}
