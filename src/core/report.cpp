#include "core/report.hpp"

#include "util/stats.hpp"
#include "util/table.hpp"

namespace hdls::core {

std::int64_t ExecutionReport::executed_iterations() const noexcept {
    std::int64_t total = 0;
    for (const auto& w : workers) {
        total += w.iterations;
    }
    return total;
}

std::int64_t ExecutionReport::global_chunks() const noexcept {
    std::int64_t total = 0;
    for (const auto& w : workers) {
        total += w.global_refills;
    }
    return total;
}

std::int64_t ExecutionReport::executed_chunks() const noexcept {
    std::int64_t total = 0;
    for (const auto& w : workers) {
        total += w.chunks;
    }
    return total;
}

double ExecutionReport::finish_cov() const noexcept {
    util::OnlineStats s;
    for (const auto& w : workers) {
        s.add(w.finish_seconds);
    }
    return s.cov();
}

int ExecutionReport::distinct_refillers() const noexcept {
    int count = 0;
    for (const auto& w : workers) {
        count += w.global_refills > 0 ? 1 : 0;
    }
    return count;
}

void ExecutionReport::print(std::ostream& os) const {
    os << approach_name(approach) << "  " << dls::technique_name(inter) << "+"
       << dls::technique_name(intra);
    if (inter_backend == dls::InterBackend::Sharded) {
        os << " (" << dls::inter_backend_name(inter_backend) << ")";
    }
    if (transport != minimpi::TransportKind::Threads) {
        os << " {" << minimpi::transport_name(transport) << "}";
    }
    os << " simd=" << simd::backend_name(simd_backend);
    if (simd_mode != simd::SimdMode::Auto) {
        os << "(" << simd::mode_name(simd_mode) << ")";
    }
    os << " pin=" << minimpi::pin_policy_name(pin);
    os << "  nodes=" << shape.nodes
       << " workers/node=" << shape.workers_per_node << " N=" << total_iterations << "\n";
    if (topology.size() > 2) {
        os << "  hierarchy:";
        for (std::size_t d = 0; d < topology.size(); ++d) {
            os << (d == 0 ? " " : " -> ") << topology[d].name << "=" << topology[d].fan_out
               << " [" << dls::technique_name(levels[d].technique);
            if (levels[d].backend) {
                os << "/" << dls::inter_backend_name(*levels[d].backend);
            }
            os << "]";
        }
        os << "\n";
    }
    os
       << "  parallel time: " << util::format_seconds(parallel_seconds)
       << "  finish CoV: " << util::format_double(finish_cov(), 4)
       << "  global chunks: " << global_chunks()
       << "  executed chunks: " << executed_chunks()
       << "  refillers: " << distinct_refillers() << "\n";
    if (trace) {
        os << "  trace: " << trace->events.size() << " events";
        if (trace->dropped() > 0) {
            os << " (" << trace->dropped() << " dropped on ring-buffer overflow)";
        }
        os << "\n";
    }
    if (!metrics.empty()) {
        const std::uint64_t acquires = metrics.counter_total("hdls_sched_acquires_total");
        const std::uint64_t steals = metrics.counter_total("hdls_sched_steals_total");
        os << "  metrics: acquires=" << acquires << " steals=" << steals
           << " lock_retries=" << metrics.counter_total("hdls_window_lock_retries_total")
           << " cas_retries=" << metrics.counter_total("hdls_window_cas_retries_total");
        const std::uint64_t stalls = metrics.counter_total("hdls_watchdog_stalls_total");
        if (stalls > 0) {
            os << " WATCHDOG_STALLS=" << stalls;
        }
        os << "\n";
    }
}

}  // namespace hdls::core
