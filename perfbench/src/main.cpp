/// perfbench — the repository benchmark. Runs one workload's cells
/// through core::run_hierarchical under MPI+MPI and MPI+OpenMP, times every
/// loop from outside, checks every loop's output against a serial
/// reference, and prints the metrics as one JSON object on the last line
/// of stdout (end-to-end metrics with --trace 0, per-layer with --trace 1).
///
///   perfbench --workload mandelbrot --seed 1 --seconds 33 --trace 0
///
/// Exit status: 0 when every loop was correct, 1 on a failed loop, 2 on a
/// usage error, 3 when a loop exceeded its timeout.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bookkeeping.hpp"
#include "core/runner.hpp"
#include "sim/simulator.hpp"
#include "span_recorder.hpp"
#include "trace/analysis.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Cell;
using perfbench::Workload;
using hdls::core::Approach;
using hdls::core::ChunkBody;
using hdls::core::ExecutionReport;
using hdls::core::HierConfig;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

constexpr int kSetups = 3;
constexpr std::size_t kTailBeyond = 10;
// With 2 * kTailBeyond + 1 passes the tail is at least the median.
constexpr std::size_t kMinPasses = 2 * kTailBeyond + 1;
constexpr auto kLoopTimeout = std::chrono::seconds(20);
constexpr std::array kApproaches{Approach::MpiMpi, Approach::MpiOpenMp};
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* prefix(Approach a) { return a == Approach::MpiMpi ? "mpimpi" : "mpiomp"; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = val == "1";
            if (val != "0" && val != "1") {
                return std::nullopt;
            }
        } else {
            return std::nullopt;
        }
        if (end != nullptr && *end != '\0') {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || o.workload.empty() || !(o.seconds > 0.0)) {
        return std::nullopt;
    }
    return o;
}

/// Named metrics with units, in insertion order.
class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    [[nodiscard]] std::string json() const {
        std::ostringstream os;
        os << std::setprecision(17) << '{';
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << e.value
               << ", \"unit\": \"" << e.unit << "\"}";
        }
        os << '}';
        return os.str();
    }

    void print(std::ostream& os) const {
        for (const Entry& e : entries_) {
            os << "  " << std::left << std::setw(40) << e.name << std::right << std::setw(16)
               << std::setprecision(6) << e.value << ' ' << e.unit << '\n';
        }
    }

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

struct Tally {
    std::atomic<std::int64_t> attempted{0};
    std::atomic<std::int64_t> failed{0};
};

void print_result(const Tally& tally, const Metrics& metrics) {
    const std::int64_t failed = tally.failed.load();
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted.load() << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
}

/// Ends the process with a failure result when one loop runs longer than
/// its timeout: a wedged executor cannot be cancelled from outside, so the
/// loop is counted as failed and the run stops instead of hanging.
class Watchdog {
public:
    explicit Watchdog(Tally& tally) : tally_(tally), thread_([this] { watch(); }) {}
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;
    ~Watchdog() {
        {
            std::lock_guard lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void arm(std::string label) {
        std::lock_guard lock(mutex_);
        label_ = std::move(label);
        deadline_ = Clock::now() + kLoopTimeout;
        cv_.notify_all();
    }
    void disarm() {
        std::lock_guard lock(mutex_);
        deadline_.reset();
    }

private:
    void watch() {
        std::unique_lock lock(mutex_);
        while (!stop_) {
            if (!deadline_) {
                cv_.wait(lock, [&] { return stop_ || deadline_.has_value(); });
                continue;
            }
            const Clock::time_point due = *deadline_;
            if (cv_.wait_until(lock, due, [&] { return stop_ || deadline_ != due; })) {
                continue;
            }
            std::cerr << "perfbench: loop " << label_ << " exceeded "
                      << kLoopTimeout.count() << " s; counted as failed\n";
            tally_.attempted.fetch_add(1);
            tally_.failed.fetch_add(1);
            print_result(tally_, Metrics{});
            std::_Exit(3);
        }
    }

    Tally& tally_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::optional<Clock::time_point> deadline_;
    std::string label_;
    bool stop_ = false;
    std::thread thread_;  // last: starts after the members it reads
};

struct Loop {
    double wall = 0.0;
    ExecutionReport report;
    bool ok = false;
};

/// One checked loop: reset the output, time run_hierarchical from outside,
/// then check the iteration count and the output against the reference.
/// With `spans`, the recorder's clock starts at the same instant as the
/// loop's.
Loop run_loop(Workload& wl, const Cell& cell, Approach approach, const HierConfig& cfg,
              const ChunkBody& body, Watchdog& dog, Tally& tally,
              perfbench::SpanRecorder* spans = nullptr) {
    Loop loop;
    wl.reset();
    const std::string label = std::string(prefix(approach)) + " " + cell.label;
    dog.arm(label);
    try {
        const Clock::time_point t0 = Clock::now();
        if (spans != nullptr) {
            spans->start(t0);
        }
        loop.report =
            hdls::core::run_hierarchical(cell.shape, approach, cfg, wl.iterations(), body);
        loop.wall = seconds_since(t0);
        loop.ok = loop.report.executed_iterations() == wl.iterations() &&
                  loop.report.total_iterations == wl.iterations() && wl.matches_reference();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: loop " << label << " threw: " << e.what() << '\n';
    }
    dog.disarm();
    tally.attempted.fetch_add(1);
    if (!loop.ok) {
        tally.failed.fetch_add(1);
        std::cerr << "perfbench: loop " << label << " FAILED its output check\n";
    }
    return loop;
}

/// Per-cell samples of the untraced loops, one list per approach.
struct CellSamples {
    std::array<std::vector<double>, 2> walls;
    std::array<std::int64_t, 2> max_chunks{};
};

/// One approach's per-layer quantities, summed over the workload's cells.
/// The span pass (executor trace off, a span around every body call)
/// gives the wall-time parts, summed over workers too, and the report's
/// counts and metrics snapshot; the trace pass (HierConfig::trace on)
/// gives what trace::analyze derives.
struct LayerTotals {
    // span pass
    double span_wall = 0.0;
    double startup = 0.0, compute = 0.0, sched = 0.0, idle_tail = 0.0, teardown = 0.0;
    std::int64_t gaps = 0, root_chunks = 0, chunks = 0;
    double locks = 0.0, lock_retries = 0.0, cas_retries = 0.0;
    double termination_spins = 0.0, team_idle_ns = 0.0, refillers = 0.0;
    // trace pass
    double trace_wall = 0.0;
    double pop_s = 0.0, lock_wait_s = 0.0, acquire_s = 0.0, imbalance_pct = 0.0;
    std::int64_t pops = 0, acquires = 0, steals = 0, dropped = 0;
    std::vector<double> lock_waits;
    // simulator prediction vs the untraced per-cell medians
    double sim_s = 0.0, measured_s = 0.0;
    int cells = 0;
};

/// Adds a span-pass loop; false when its parts do not sum to its wall.
bool add_span_pass(LayerTotals& t, const Loop& loop, const perfbench::LoopParts& parts) {
    t.span_wall += loop.wall;
    for (const auto& w : parts.workers) {
        t.startup += w.startup;
        t.compute += w.compute;
        t.sched += w.sched;
        t.idle_tail += w.idle_tail;
        t.teardown += w.teardown;
        t.gaps += std::max<std::int64_t>(w.calls - 1, 0);
    }
    const auto& m = loop.report.metrics;
    t.locks += static_cast<double>(m.counter_total("hdls_window_locks_total"));
    t.lock_retries += static_cast<double>(m.counter_total("hdls_window_lock_retries_total"));
    t.cas_retries += static_cast<double>(m.counter_total("hdls_window_cas_retries_total"));
    t.termination_spins +=
        static_cast<double>(m.counter_total("hdls_sched_termination_spins_total"));
    t.team_idle_ns += static_cast<double>(m.counter_total("hdls_team_idle_ns_total"));
    t.root_chunks += loop.report.global_chunks();
    t.chunks += loop.report.executed_chunks();
    t.refillers += loop.report.distinct_refillers();
    ++t.cells;
    if (!parts.closes(0.01)) {
        std::cerr << "perfbench: span parts do not sum to the loop wall time\n";
        return false;
    }
    return true;
}

void add_trace_pass(LayerTotals& t, const Loop& loop) {
    const hdls::trace::Trace& trace = *loop.report.trace;
    const hdls::trace::TraceAnalysis a = hdls::trace::analyze(trace);
    t.trace_wall += loop.wall;
    for (const auto& lvl : a.levels) {
        if (lvl.level == 0) {
            t.acquire_s += lvl.acquire_seconds;
            t.acquires += lvl.acquires;
            t.steals += lvl.steals;
        } else if (lvl.level == 1) {
            t.pop_s += lvl.pop_seconds;
            t.pops += lvl.pops;
            t.lock_wait_s += lvl.lock_wait_seconds;
        }
    }
    for (const auto& e : trace.events) {
        if (e.kind == hdls::trace::EventKind::LocalPop && e.level == 1) {
            t.lock_waits.push_back(e.wait);
        }
    }
    t.imbalance_pct += a.percent_imbalance;
    t.dropped += trace.dropped();
}

std::size_t next_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) {
        p <<= 1;
    }
    return p;
}

double simulate_cell(const Cell& cell, Approach approach, const hdls::sim::WorkloadTrace& costs) {
    hdls::sim::ClusterSpec spec;
    spec.nodes = cell.shape.nodes;
    spec.workers_per_node = cell.shape.workers_per_node;
    hdls::sim::SimConfig sc;
    sc.inter = cell.cfg.inter;
    sc.intra = cell.cfg.intra;
    sc.inter_backend = cell.cfg.inter_backend;
    sc.min_chunk = cell.cfg.min_chunk;
    sc.fac_sigma = cell.cfg.fac_sigma;
    sc.fac_mu = cell.cfg.fac_mu;
    const auto model = approach == Approach::MpiMpi ? hdls::sim::ExecModel::MpiMpi
                                                    : hdls::sim::ExecModel::MpiOpenMp;
    return hdls::sim::simulate(model, spec, sc, costs).parallel_time;
}

/// Runs the two traced passes over every cell and both approaches.
std::array<LayerTotals, 2> traced_passes(Workload& wl, double serial,
                                         const std::vector<CellSamples>& samples,
                                         Watchdog& dog, Tally& tally) {
    std::array<LayerTotals, 2> totals;
    const hdls::sim::WorkloadTrace costs(wl.cost_trace(serial));
    const ChunkBody body = [&wl](std::int64_t b, std::int64_t e) { wl.body(b, e); };
    perfbench::SpanRecorder spans;
    const ChunkBody spanned = spans.wrap(body);
    for (std::size_t c = 0; c < wl.cells().size(); ++c) {
        const Cell& cell = wl.cells()[c];
        const int workers = cell.shape.total_workers();
        for (std::size_t a = 0; a < 2; ++a) {
            LayerTotals& t = totals[a];
            const auto share = static_cast<std::size_t>(samples[c].max_chunks[a] / workers);

            spans.prepare(workers, 2 * share + 16);
            const Loop plain = run_loop(wl, cell, kApproaches[a], cell.cfg, spanned, dog, tally,
                                        &spans);
            if (plain.ok) {
                const auto parts = perfbench::attribute(spans.take(), workers, plain.wall);
                if (!add_span_pass(t, plain, parts)) {
                    tally.failed.fetch_add(1);
                }
            }

            // Trace capacity from the cell's chunk count: up to ~6 events
            // per chunk for a worker taking its even share. A trace that
            // still dropped events is rerun at the capacity its fullest
            // worker needed.
            HierConfig cfg = cell.cfg;
            cfg.trace = true;
            cfg.trace_capacity = next_pow2(std::max<std::size_t>(6 * share, 1 << 12));
            for (int attempt = 0;; ++attempt) {
                const Loop traced = run_loop(wl, cell, kApproaches[a], cfg, body, dog, tally);
                if (!traced.ok) {
                    break;
                }
                const hdls::trace::Trace& trace = *traced.report.trace;
                if (trace.dropped() > 0 && attempt < 2) {
                    std::vector<std::size_t> need(trace.dropped_per_worker.begin(),
                                                  trace.dropped_per_worker.end());
                    for (const auto& e : trace.events) {
                        ++need[static_cast<std::size_t>(e.worker)];
                    }
                    cfg.trace_capacity = next_pow2(*std::max_element(need.begin(), need.end()) +
                                                   cfg.trace_capacity / 8);
                    std::cerr << "perfbench: trace of " << cell.label << " dropped "
                              << trace.dropped() << " events; rerunning at capacity "
                              << cfg.trace_capacity << '\n';
                    continue;
                }
                if (trace.dropped() > 0) {
                    tally.failed.fetch_add(1);  // an incomplete trace: numbers withheld
                } else {
                    add_trace_pass(t, traced);
                }
                break;
            }
            t.sim_s += simulate_cell(cell, kApproaches[a], costs);
            t.measured_s += perfbench::median(samples[c].walls[a]);
        }
    }
    return totals;
}

void add_layer_metrics(Metrics& out, Approach approach, const LayerTotals& t,
                       double untraced_pass, double serial_per_pass, int workers) {
    const std::string p = std::string(prefix(approach)) + ".";
    const bool mpimpi = approach == Approach::MpiMpi;
    const double chunks = static_cast<double>(t.chunks);
    out.add(p + "core.sched_s", t.sched, "s");
    out.add(p + "core.sched_ns_per_chunk", 1e9 * ratio(t.sched, static_cast<double>(t.gaps)),
            "ns");
    if (mpimpi) {  // MPI+OpenMP has no node-queue window: its leaf is the team
        const double pops = static_cast<double>(t.pops);
        out.add(p + "core.level1.pop_ns", 1e9 * ratio(t.pop_s, pops), "ns");
        out.add(p + "core.level1.lock_wait_ns", 1e9 * ratio(t.lock_wait_s, pops), "ns");
        std::vector<double> waits = t.lock_waits;
        std::sort(waits.begin(), waits.end());
        out.add(p + "core.level1.lock_wait_p99_ns",
                waits.empty() ? 0.0 : 1e9 * waits[(waits.size() - 1) * 99 / 100], "ns");
        out.add(p + "minimpi.locks_per_chunk", ratio(t.locks, chunks), "count");
        out.add(p + "minimpi.lock_retries_per_lock", ratio(t.lock_retries, t.locks), "count");
    }
    out.add(p + "core.level0.acquire_ns",
            1e9 * ratio(t.acquire_s, static_cast<double>(t.acquires + t.steals)), "ns");
    out.add(p + "core.level0.acquires", static_cast<double>(t.acquires), "count");
    out.add(p + "core.level0.steals", static_cast<double>(t.steals), "count");
    out.add(p + "core.root_chunks", static_cast<double>(t.root_chunks), "count");
    out.add(p + "minimpi.cas_retries_per_chunk", ratio(t.cas_retries, chunks), "count");
    out.add(p + "core.idle_tail_s", t.idle_tail, "s");
    out.add(p + "core.imbalance_pct", ratio(t.imbalance_pct, t.cells), "%");
    out.add(p + "core.refillers", ratio(t.refillers, t.cells), "count");
    out.add(p + "core.chunks", chunks, "count");
    out.add(p + "core.startup_ms", 1e3 * t.startup, "ms");
    out.add(p + "core.teardown_ms", 1e3 * t.teardown, "ms");
    out.add(p + "apps.compute_s", t.compute, "s");
    out.add(p + "apps.efficiency", ratio(serial_per_pass, workers * untraced_pass), "ratio");
    if (mpimpi) {
        out.add(p + "core.termination_spins", t.termination_spins, "count");
    } else {
        out.add(p + "ompsim.team_idle_s", 1e-9 * t.team_idle_ns, "s");
    }
    out.add(p + "trace.overhead_pct", 100.0 * ratio(t.trace_wall - untraced_pass, untraced_pass),
            "%");
    out.add(p + "trace.span_overhead_pct",
            100.0 * ratio(t.span_wall - untraced_pass, untraced_pass), "%");
    out.add(p + "trace.dropped", static_cast<double>(t.dropped), "count");
    // The simulator is a prediction: only its distance from the measured
    // per-cell medians is reported, never its time.
    out.add(p + "sim.error_pct", 100.0 * ratio(std::abs(t.sim_s - t.measured_s), t.measured_s),
            "%");
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
        std::array<unsigned, 12> regs{};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs.data(), 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Options> opt = parse(argc, argv);
    const auto& names = perfbench::workload_names();
    if (!opt || std::find(names.begin(), names.end(), opt->workload) == names.end()) {
        std::cerr << "usage: perfbench --workload <mandelbrot|fine-grain|psia-adaptive> "
                     "--seed <n> --seconds <s> --trace <0|1>\n";
        return 2;
    }
    Tally tally;
    Watchdog dog(tally);

    // ---- set-up: inputs, serial reference, warm-up (one checked loop of
    // every cell under each approach); repeated kSetups times, the first
    // timed from process start.
    std::unique_ptr<Workload> wl;
    std::vector<double> setup_s, serial_s;
    std::vector<CellSamples> samples;
    Clock::time_point setup_t0 = g_process_start;
    for (int s = 0; s < kSetups; ++s) {
        wl = perfbench::make_workload(opt->workload, opt->seed);
        const ChunkBody body = [&w = *wl](std::int64_t b, std::int64_t e) { w.body(b, e); };
        wl->reset();
        const Clock::time_point t0 = Clock::now();
        hdls::core::run_serial(wl->iterations(), body);
        serial_s.push_back(seconds_since(t0));
        wl->keep_as_reference();
        samples.assign(wl->cells().size(), {});
        for (std::size_t c = 0; c < wl->cells().size(); ++c) {
            const Cell& cell = wl->cells()[c];
            for (std::size_t a = 0; a < kApproaches.size(); ++a) {
                const Loop loop = run_loop(*wl, cell, kApproaches[a], cell.cfg, body, dog, tally);
                samples[c].max_chunks[a] = loop.report.executed_chunks();
            }
        }
        setup_s.push_back(seconds_since(setup_t0));
        setup_t0 = Clock::now();
    }
    const double serial = perfbench::median(serial_s);
    const ChunkBody body = [&w = *wl](std::int64_t b, std::int64_t e) { w.body(b, e); };

    // ---- timed passes: one loop of every cell per approach, the two
    // approaches interleaved cell by cell (order alternating per pass).
    std::array<std::vector<double>, 2> passes;
    ExecutionReport last;  // carries the resolved SIMD backend and transport
    const Clock::time_point run_t0 = Clock::now();
    while (passes[0].size() < kMinPasses || seconds_since(run_t0) < opt->seconds) {
        std::array<double, 2> pass{};
        const bool flip = passes[0].size() % 2 == 1;
        for (std::size_t c = 0; c < wl->cells().size(); ++c) {
            const Cell& cell = wl->cells()[c];
            for (std::size_t k = 0; k < 2; ++k) {
                const std::size_t a = flip ? 1 - k : k;
                Loop loop = run_loop(*wl, cell, kApproaches[a], cell.cfg, body, dog, tally);
                pass[a] += loop.wall;
                samples[c].walls[a].push_back(loop.wall);
                samples[c].max_chunks[a] =
                    std::max(samples[c].max_chunks[a], loop.report.executed_chunks());
                last = std::move(loop.report);
            }
        }
        passes[0].push_back(pass[0]);
        passes[1].push_back(pass[1]);
    }

    Metrics out;
    const auto tail0 = perfbench::tail(passes[0], kTailBeyond);
    if (!opt->trace) {
        for (std::size_t a = 0; a < 2; ++a) {
            const std::string p = prefix(kApproaches[a]);
            out.add(p + "_loop_s", perfbench::median(passes[a]), "s");
            out.add(p + "_loop_tail_s", perfbench::tail(passes[a], kTailBeyond)->value, "s");
        }
        out.add("setup_s", perfbench::median(setup_s), "s");
    } else {
        const auto totals = traced_passes(*wl, serial, samples, dog, tally);
        const double serial_per_pass = serial * static_cast<double>(wl->cells().size());
        for (std::size_t a = 0; a < 2; ++a) {
            add_layer_metrics(out, kApproaches[a], totals[a], perfbench::median(passes[a]),
                              serial_per_pass, wl->cells().front().shape.total_workers());
            std::cerr << "  " << approach_name(kApproaches[a]) << ": simulator predicts "
                      << totals[a].sim_s << " s per pass (prediction), measured median "
                      << totals[a].measured_s << " s\n";
        }
        out.add("apps.serial_s", serial, "s");
    }

    // ---- run record: host/build metadata and the per-cell comparison as
    // measured (one JSON line), a readable table on stderr, then the result
    // as the last stdout line.
    std::ostringstream meta;
    meta << std::setprecision(6) << "{\"perfbench\": {\"workload\": \"" << opt->workload
         << "\", \"seed\": " << opt->seed << ", \"passes\": " << passes[0].size()
         << ", \"tail_percentile\": " << tail0->percentile
         << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
         << cpu_model() << "\", \"compiler\": \"" << kCompiler
         << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"simd_backend\": \""
         << hdls::simd::backend_name(last.simd_backend) << "\", \"transport\": \""
         << minimpi::transport_name(last.transport) << "\", \"cells\": [";
    for (std::size_t c = 0; c < wl->cells().size(); ++c) {
        const double mm = perfbench::median(samples[c].walls[0]);
        const double mo = perfbench::median(samples[c].walls[1]);
        meta << (c ? ", " : "") << "{\"cell\": \"" << wl->cells()[c].label
             << "\", \"mpimpi_ms\": " << 1e3 * mm << ", \"mpiomp_ms\": " << 1e3 * mo
             << ", \"faster\": \"" << (mm < mo ? "MPI+MPI" : "MPI+OpenMP") << "\"}";
    }
    meta << "]}}";
    std::cout << meta.str() << '\n';
    std::cerr << "perfbench " << opt->workload << ": " << passes[0].size()
              << " passes (tail = p" << tail0->percentile << "), "
              << tally.attempted.load() << " loops, " << tally.failed.load() << " failed\n";
    out.print(std::cerr);
    print_result(tally, out);
    return tally.failed.load() == 0 ? 0 : 1;
}
