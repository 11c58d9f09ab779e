#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace hdls::trace {

namespace {

/// JSON string escaping (the strings here are technique/approach names,
/// but stay correct for arbitrary content).
[[nodiscard]] std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

[[nodiscard]] std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

[[nodiscard]] double us(double seconds) { return seconds * 1e6; }

/// Full-precision compact rendering for second-valued CSV columns
/// (json_number's fixed %.3f is sized for microsecond Chrome values and
/// would quantize seconds to 1 ms).
[[nodiscard]] std::string csv_number(double v) {
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

void export_chrome_json(const Trace& trace, std::ostream& os) {
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"approach\":\"" << json_escape(trace.meta.approach) << "\","
       << "\"inter\":\"" << json_escape(trace.meta.inter) << "\","
       << "\"intra\":\"" << json_escape(trace.meta.intra) << "\","
       << "\"nodes\":" << trace.meta.nodes << ","
       << "\"workers_per_node\":" << trace.meta.workers_per_node << ","
       << "\"total_iterations\":" << trace.meta.total_iterations << ","
       << "\"dropped_events\":" << trace.dropped() << "},\"traceEvents\":[";

    bool first = true;
    const auto emit = [&](const std::string& entry) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\n" << entry;
    };

    // Multi-job (JobService) traces group by job: each job becomes a
    // Chrome "process" so one job's lanes sit together and carry its name;
    // classic single-tenant traces keep pid = node.
    const bool by_job = !trace.meta.jobs.empty();
    const auto pid_of = [&](const Event& e) { return by_job ? e.job : e.node; };
    if (by_job) {
        for (const auto& [job, name] : trace.meta.jobs) {
            emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(job) +
                 ",\"args\":{\"name\":\"job " + std::to_string(job) +
                 (name.empty() ? std::string{} : ": " + json_escape(name)) + "\"}}");
        }
    }

    // Thread-name metadata: label every worker lane.
    std::map<std::pair<int, int>, bool> seen;
    for (const Event& e : trace.events) {
        if (seen.emplace(std::pair{pid_of(e), e.worker}, true).second) {
            emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid_of(e)) +
                 ",\"tid\":" + std::to_string(e.worker) +
                 ",\"args\":{\"name\":\"worker " + std::to_string(e.worker) + "\"}}");
        }
    }

    for (const Event& e : trace.events) {
        const std::string common = "\"pid\":" + std::to_string(pid_of(e)) +
                                   ",\"tid\":" + std::to_string(e.worker) +
                                   ",\"ts\":" + json_number(us(e.t0));
        // Every tagged event names its job in args so job identity
        // survives re-grouping in the viewer.
        const std::string job_arg =
            e.job >= 0 ? ",\"job\":" + std::to_string(e.job) : std::string{};
        switch (e.kind) {
            case EventKind::GlobalAcquire:
                emit("{\"name\":\"GlobalAcquire\",\"ph\":\"X\"," + common +
                     ",\"dur\":" + json_number(us(e.duration())) +
                     ",\"args\":{\"start\":" + std::to_string(e.a) +
                     ",\"size\":" + std::to_string(e.b) +
                     ",\"level\":" + std::to_string(e.level) + job_arg + "}}");
                break;
            case EventKind::LocalPop:
                emit("{\"name\":\"LocalPop\",\"ph\":\"X\"," + common +
                     ",\"dur\":" + json_number(us(e.duration())) +
                     ",\"args\":{\"begin\":" + std::to_string(e.a) +
                     ",\"end\":" + std::to_string(e.b) +
                     ",\"lock_wait_us\":" + json_number(us(e.wait)) +
                     ",\"level\":" + std::to_string(e.level) + job_arg + "}}");
                break;
            case EventKind::BarrierWait:
                emit("{\"name\":\"BarrierWait\",\"ph\":\"X\"," + common +
                     ",\"dur\":" + json_number(us(e.duration())) + "}");
                break;
            case EventKind::ChunkExecBegin:
                emit("{\"name\":\"ChunkExec\",\"ph\":\"B\"," + common +
                     ",\"args\":{\"begin\":" + std::to_string(e.a) +
                     ",\"end\":" + std::to_string(e.b) + job_arg + "}}");
                break;
            case EventKind::ChunkExecEnd:
                emit("{\"name\":\"ChunkExec\",\"ph\":\"E\"," + common + "}");
                break;
            case EventKind::RefillBegin:
                emit("{\"name\":\"Refill\",\"ph\":\"B\"," + common + "}");
                break;
            case EventKind::RefillEnd:
                emit("{\"name\":\"Refill\",\"ph\":\"E\"," + common +
                     ",\"args\":{\"start\":" + std::to_string(e.a) +
                     ",\"size\":" + std::to_string(e.b) + "}}");
                break;
            case EventKind::Terminate:
                emit("{\"name\":\"Terminate\",\"ph\":\"i\",\"s\":\"t\"," + common + "}");
                break;
            case EventKind::FeedbackReport:
                emit("{\"name\":\"FeedbackReport\",\"ph\":\"i\",\"s\":\"t\"," + common +
                     ",\"args\":{\"iterations\":" + std::to_string(e.a) +
                     ",\"time_ns\":" + std::to_string(e.b) + "}}");
                break;
            case EventKind::Steal:
                emit("{\"name\":\"Steal\",\"ph\":\"X\"," + common +
                     ",\"dur\":" + json_number(us(e.duration())) +
                     ",\"args\":{\"start\":" + std::to_string(e.a) +
                     ",\"size\":" + std::to_string(e.b) +
                     ",\"level\":" + std::to_string(e.level) + "}}");
                break;
            case EventKind::Reclaim:
                emit("{\"name\":\"Reclaim\",\"ph\":\"i\",\"s\":\"t\"," + common +
                     ",\"args\":{\"start\":" + std::to_string(e.a) +
                     ",\"size\":" + std::to_string(e.b) + "}}");
                break;
        }
    }
    os << "\n]}\n";
}

void export_csv(const Trace& trace, std::ostream& os) {
    os << "kind,worker,node,level,job,t0,t1,wait,a,b\n";
    for (const Event& e : trace.events) {
        os << event_kind_name(e.kind) << "," << e.worker << "," << e.node << ","
           << static_cast<int>(e.level) << "," << e.job << "," << csv_number(e.t0) << ","
           << csv_number(e.t1) << "," << csv_number(e.wait) << "," << e.a << "," << e.b << "\n";
    }
}

void ascii_gantt(const Trace& trace, std::ostream& os, int width) {
    width = std::max(width, 10);
    const double span = trace.duration();
    if (trace.events.empty() || span <= 0.0) {
        os << "(empty trace)\n";
        return;
    }

    // Collect worker ids in order.
    std::vector<int> workers;
    for (const Event& e : trace.events) {
        if (std::find(workers.begin(), workers.end(), e.worker) == workers.end()) {
            workers.push_back(e.worker);
        }
    }
    std::sort(workers.begin(), workers.end());

    const double col_w = span / width;
    const auto col_of = [&](double t) {
        return std::clamp(static_cast<int>(t / col_w), 0, width - 1);
    };
    // Painting priority: exec over overhead over wait over idle.
    const auto paint = [&](std::string& row, double t0, double t1, char c) {
        const auto rank = [](char ch) {
            switch (ch) {
                case '#':
                    return 3;
                case '+':
                    return 2;
                case '.':
                    return 1;
                default:
                    return 0;
            }
        };
        for (int col = col_of(t0); col <= col_of(std::max(t0, t1 - 1e-12)); ++col) {
            if (rank(c) > rank(row[static_cast<std::size_t>(col)])) {
                row[static_cast<std::size_t>(col)] = c;
            }
        }
    };

    for (const int worker : workers) {
        std::string row(static_cast<std::size_t>(width), ' ');
        double exec_begin = -1.0;
        for (const Event& e : trace.events) {
            if (e.worker != worker) {
                continue;
            }
            switch (e.kind) {
                case EventKind::GlobalAcquire:
                case EventKind::Steal:
                case EventKind::LocalPop:
                    paint(row, e.t0, e.t1, '+');
                    break;
                case EventKind::BarrierWait:
                    paint(row, e.t0, e.t1, '.');
                    break;
                case EventKind::ChunkExecBegin:
                    exec_begin = e.t0;
                    break;
                case EventKind::ChunkExecEnd:
                    if (exec_begin >= 0.0) {
                        paint(row, exec_begin, e.t1, '#');
                        exec_begin = -1.0;
                    }
                    break;
                default:
                    break;
            }
        }
        char label[16];
        std::snprintf(label, sizeof(label), "w%-3d |", worker);
        os << label << row << "|\n";
    }
    os << "      0" << std::string(static_cast<std::size_t>(std::max(0, width - 1)), ' ')
       << "t=" << json_number(span * 1e3) << "ms\n"
       << "      '#' compute  '+' scheduling overhead  '.' wait  ' ' idle\n";
}

}  // namespace hdls::trace
