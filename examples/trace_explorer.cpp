/// \file trace_explorer.cpp
/// Runs any (inter, intra, approach, workload) combination with tracing on
/// and dumps the recorded chunk-lifecycle events — Chrome trace-event JSON
/// for chrome://tracing / ui.perfetto.dev, CSV for ad-hoc analysis, or an
/// ASCII Gantt straight to the terminal — plus the derived per-worker
/// overhead/compute breakdown.
///
/// One command line, wrapped here:
///
///   $ ./trace_explorer --schedule GSS+SS --approach MPI+MPI --nodes 2 --wpn 4
///         --workload gaussian --iterations 2000 --format chrome --out trace.json
///
/// The loop body busy-spins each iteration for its synthetic cost, so the
/// recorded timeline reflects real contention on this machine.

#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/hdls.hpp"
#include "util/cli.hpp"

namespace {

/// Burns `seconds` of calibrated multiply-add work through the SIMD burner
/// (sleep granularity is too coarse for the sub-millisecond iterations that
/// drive lock contention, and a clock-polling spin exercises none of the
/// execution ports the real kernels contend on).
void burn(double seconds) { hdls::apps::burn_seconds(seconds); }

}  // namespace

int main(int argc, char** argv) {
    using namespace hdls;

    util::ArgParser cli("trace_explorer",
                        "Traces one hierarchical loop execution and exports its events");
    cli.add_string("schedule", "GSS+SS",
                   "one technique per level, e.g. FAC2+STATIC or FAC2+GSS+SS "
                   "(default: HDLS_SCHEDULE or GSS+SS)");
    cli.add_string("approach", "MPI+MPI", "MPI+MPI | MPI+OpenMP");
    cli.add_int("nodes", 2, "simulated compute nodes");
    cli.add_int("wpn", 4, "workers (ranks/threads) per node");
    cli.add_string("topology", "", "machine tree, e.g. racks=2,nodes=2,cores=4 "
                                   "(default: HDLS_TOPOLOGY or the flat nodes x wpn)");
    cli.add_string("workload", "gaussian",
                   "constant|uniform|gaussian|exponential|bimodal|increasing|decreasing");
    cli.add_int("iterations", 2000, "loop size");
    cli.add_double("mean-us", 50.0, "mean iteration cost in microseconds");
    cli.add_double("cov", 0.5, "workload dispersion (CoV where meaningful)");
    cli.add_string("backend", "", "level-1 queue: centralized | sharded "
                                  "(default: HDLS_INTER_BACKEND or centralized)");
    cli.add_string("format", "chrome", "chrome | csv | gantt");
    cli.add_string("out", "", "output file (default: stdout)");
    cli.add_int("capacity", 1 << 14, "trace ring-buffer capacity per worker");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    const auto cfg_opt = core::parse_schedule(cli.get_string("schedule"));
    if (!cfg_opt) {
        std::cerr << "bad --schedule '" << cli.get_string("schedule") << "'\n";
        return 2;
    }
    const auto approach = core::parse_approach(cli.get_string("approach"));
    if (!approach) {
        std::cerr << "bad --approach '" << cli.get_string("approach") << "'\n";
        return 2;
    }
    const auto kind = apps::workload_from_string(cli.get_string("workload"));
    if (!kind) {
        std::cerr << "bad --workload '" << cli.get_string("workload") << "'\n";
        return 2;
    }
    // Validate the output choices up front: a typo or unwritable path must
    // not cost the whole (busy-spinning) traced run.
    const std::string format = cli.get_string("format");
    if (format != "chrome" && format != "csv" && format != "gantt") {
        std::cerr << "bad --format '" << format << "'\n";
        return 2;
    }
    std::ofstream file;
    const std::string out = cli.get_string("out");
    if (!out.empty()) {
        file.open(out);
        if (!file) {
            std::cerr << "cannot open '" << out << "' for writing\n";
            return 2;
        }
    }

    core::HierConfig cfg = *cfg_opt;
    cfg.trace = true;  // HDLS_TRACE=0 turns it off
    cfg.trace_capacity = static_cast<std::size_t>(cli.get_int("capacity"));
    try {
        // The HDLS_* program knobs first; explicit flags beat them.
        cfg = core::config_from_env(cfg);
        if (cli.provided("schedule")) {
            cfg.inter = cfg_opt->inter;
            cfg.intra = cfg_opt->intra;
            cfg.min_chunk = cfg_opt->min_chunk;
            cfg.levels = cfg_opt->levels;
        }
        if (const std::string topo = cli.get_string("topology"); !topo.empty()) {
            cfg.topology = core::parse_topology(topo);
        }
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (const std::string backend = cli.get_string("backend"); !backend.empty()) {
        const auto parsed = dls::inter_backend_from_string(backend);
        if (!parsed) {
            std::cerr << "bad --backend '" << backend << "'\n";
            return 2;
        }
        cfg.inter_backend = *parsed;
    }

    apps::WorkloadSpec spec;
    spec.kind = *kind;
    spec.iterations = static_cast<std::size_t>(cli.get_int("iterations"));
    spec.mean_seconds = cli.get_double("mean-us") * 1e-6;
    spec.cov = cli.get_double("cov");
    const std::vector<double> costs = apps::make_workload(spec);

    core::ClusterShape shape{static_cast<int>(cli.get_int("nodes")),
                             static_cast<int>(cli.get_int("wpn"))};
    if (!cfg.topology.empty()) {
        // An explicit tree defines the shape: leaf fan-out x leaf groups.
        shape = core::shape_from_topology(cfg.topology);
    }
    const auto n = static_cast<std::int64_t>(costs.size());

    std::cerr << "tracing " << core::approach_name(*approach) << " "
              << core::format_schedule(cfg) << " on " << shape.nodes << "x"
              << shape.workers_per_node << ", N=" << n << " ...\n";

    const core::ExecutionReport report =
        parallel_for(shape, *approach, cfg, n, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                burn(costs[static_cast<std::size_t>(i)]);
            }
        });
    report.print(std::cerr);

    if (!report.trace) {
        std::cerr << "tracing disabled (HDLS_TRACE=0): nothing to export\n";
        return 0;
    }

    std::ostream& os = out.empty() ? std::cout : file;

    if (format == "chrome") {
        trace::export_chrome_json(*report.trace, os);
    } else if (format == "csv") {
        trace::export_csv(*report.trace, os);
    } else {
        trace::ascii_gantt(*report.trace, os, 100);
    }
    if (!out.empty()) {
        std::cerr << "wrote " << report.trace->events.size() << " events to " << out << "\n";
    }

    // The paper's diagnostics, derived from the same events.
    trace::analyze(*report.trace).print(std::cerr);
    return 0;
}
