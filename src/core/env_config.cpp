#include "core/env_config.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/parse.hpp"

namespace hdls::core {

namespace {

/// `text` without whitespace, each character passed through `fold`.
[[nodiscard]] std::string stripped(std::string_view text, int (*fold)(int) = nullptr) {
    std::string out;
    for (const char ch : text) {
        const auto c = static_cast<unsigned char>(ch);
        if (!std::isspace(c)) {
            out.push_back(static_cast<char>(fold != nullptr ? fold(c) : c));
        }
    }
    return out;
}

[[nodiscard]] std::string normalized(std::string_view text) { return stripped(text, ::toupper); }

[[nodiscard]] std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::size_t from = 0;
    for (;;) {
        const std::size_t at = text.find(sep, from);
        if (at == std::string::npos) {
            parts.push_back(text.substr(from));
            return parts;
        }
        parts.push_back(text.substr(from, at - from));
        from = at + 1;
    }
}

}  // namespace

std::optional<HierConfig> parse_schedule(std::string_view text) {
    const std::string s = normalized(text);
    const std::size_t comma = s.find(',');
    HierConfig cfg;
    if (comma != std::string::npos) {
        constexpr std::string_view kKey = "MIN_CHUNK=";
        const std::string option = s.substr(comma + 1);
        const auto k = option.starts_with(kKey)
                           ? util::parse_integer<std::int64_t>(option.substr(kKey.size()), 1)
                           : std::nullopt;
        if (!k) {
            return std::nullopt;
        }
        cfg.min_chunk = *k;
    }
    // One technique per topology level; backends stay unset so each
    // interior level inherits the run's inter_backend.
    for (const std::string& part : split(s.substr(0, comma), '+')) {
        const auto t = dls::technique_from_string(part);
        if (!t) {
            return std::nullopt;
        }
        cfg.levels.push_back(LevelConfig{*t, std::nullopt});
    }
    if (cfg.levels.size() < 2) {
        return std::nullopt;
    }
    cfg.inter = cfg.levels.front().technique;
    cfg.intra = cfg.levels.back().technique;
    if (cfg.levels.size() == 2) {
        cfg.levels.clear();  // the classic inter+intra pair
    }
    return cfg;
}

std::string format_schedule(const HierConfig& cfg) {
    std::string out;
    if (cfg.levels.size() > 2) {
        for (const LevelConfig& lv : cfg.levels) {
            out += out.empty() ? "" : "+";
            out += dls::technique_name(lv.technique);
        }
    } else {
        out = std::string(dls::technique_name(cfg.inter)) + "+" +
              std::string(dls::technique_name(cfg.intra));
    }
    if (cfg.min_chunk != 1) {
        out += ",min_chunk=" + std::to_string(cfg.min_chunk);
    }
    return out;
}

std::optional<Approach> parse_approach(std::string_view text) {
    const std::string s = normalized(text);
    if (s == "MPI+MPI" || s == "MPIMPI") {
        return Approach::MpiMpi;
    }
    if (s == "MPI+OPENMP" || s == "MPIOPENMP" || s == "HYBRID") {
        return Approach::MpiOpenMp;
    }
    return std::nullopt;
}

std::vector<minimpi::TopologyLevel> parse_topology(std::string_view text) {
    const std::string s = stripped(text);
    if (s.empty()) {
        throw std::invalid_argument("topology: empty spec (expected name=fanout,...)");
    }
    std::vector<minimpi::TopologyLevel> tree;
    for (const std::string& entry : split(s, ',')) {
        if (entry.empty()) {
            throw std::invalid_argument("topology: empty level in '" + s + "'");
        }
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("topology: level '" + entry +
                                        "' is not of the form name=fanout");
        }
        const std::string name = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        if (name.empty()) {
            throw std::invalid_argument("topology: level '" + entry + "' has an empty name");
        }
        const auto fan_out = util::parse_integer<int>(value);
        if (!fan_out) {
            throw std::invalid_argument("topology: level '" + name + "' fan-out '" + value +
                                        "' is not a number");
        }
        if (*fan_out < 1) {
            throw std::invalid_argument("topology: level '" + name +
                                        "' fan-out must be >= 1 (got " + value + ")");
        }
        tree.push_back({name, *fan_out});
    }
    return tree;
}

std::string format_topology(const std::vector<minimpi::TopologyLevel>& tree) {
    std::string out;
    for (std::size_t d = 0; d < tree.size(); ++d) {
        if (d > 0) {
            out += ",";
        }
        out += tree[d].name + "=" + std::to_string(tree[d].fan_out);
    }
    return out;
}

ChaosSpec parse_chaos(std::string_view text) {
    const std::string s = stripped(text);
    const auto fail = [&text]() -> ChaosSpec {
        throw std::invalid_argument(std::string("chaos spec '") + std::string(text) +
                                    "' is malformed (expected \"kill:<rank>@<pct>%\", e.g. "
                                    "\"kill:1@50%\")");
    };
    const std::size_t at = s.find('@');
    if (normalized(s.substr(0, 5)) != "KILL:" || at == std::string::npos) {
        return fail();
    }
    std::string pct_s = s.substr(at + 1);
    if (!pct_s.empty() && pct_s.back() == '%') {
        pct_s.pop_back();
    }
    const auto rank = util::parse_integer<int>(s.substr(5, at - 5), 0);
    const auto pct = util::parse_number(pct_s);
    if (!rank || !pct || *pct < 0.0 || *pct > 100.0) {
        return fail();
    }
    return ChaosSpec{*rank, *pct / 100.0};
}

namespace {

// --------------------------------------------- one parser per value type ----

[[nodiscard]] std::optional<bool> parse_bool(std::string_view text) {
    const std::string s = normalized(text);
    if (s == "1" || s == "ON" || s == "TRUE" || s == "YES") {
        return true;
    }
    if (s == "0" || s == "OFF" || s == "FALSE" || s == "NO") {
        return false;
    }
    return std::nullopt;
}

template <int Min>
[[nodiscard]] std::optional<int> parse_int(std::string_view text) {
    return util::parse_integer<int>(stripped(text), Min);
}

[[nodiscard]] std::optional<std::chrono::milliseconds> parse_millis(std::string_view text) {
    const auto ms = util::parse_integer<std::int64_t>(stripped(text), 1);
    return ms ? std::optional(std::chrono::milliseconds(*ms)) : std::nullopt;
}

[[nodiscard]] std::optional<double> parse_positive(std::string_view text) {
    const auto v = util::parse_number(stripped(text));
    return v && *v > 0.0 ? v : std::nullopt;
}

[[nodiscard]] std::optional<std::string> parse_path(std::string_view text) {
    return text.empty() ? std::nullopt : std::optional(std::string(text));
}

/// One of an enum's names (case-insensitive, spaces ignored).
template <auto FromString>
[[nodiscard]] auto parse_choice(std::string_view text) {
    return FromString(stripped(text));
}

/// parse_chaos's own message would only repeat the grammar.
[[nodiscard]] std::optional<ChaosSpec> parse_kill(std::string_view text) {
    try {
        return parse_chaos(text);
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

/// A row's parser: Parse the value (a T or a std::optional<T>), store it
/// in `Field`.
template <auto Field, auto Parse>
bool into(std::string_view value, EnvKnobs& knobs) {
    std::optional parsed = Parse(value);
    if (!parsed) {
        return false;
    }
    knobs.*Field = std::move(*parsed);
    return true;
}

constexpr std::string_view kBool = "1/on/true/yes or 0/off/false/no";
constexpr std::string_view kMillis = "integer >= 1 (ms)";

// ------------------------------------------------------------ the table ----

constexpr KnobRow kKnobs[] = {
    {"HDLS_SCHEDULE", "<L0>+<L1>[+<L2>...][,min_chunk=<k>]", "`GSS+GSS`",
     "DLS technique per hierarchy level, outermost first; two techniques are the classic "
     "inter+intra pair (e.g. `FAC2+SS,min_chunk=4`)",
     KnobScope::Program, into<&EnvKnobs::schedule, parse_schedule>},
    {"HDLS_TOPOLOGY", "name=fanout,name=fanout,...", "depth-2 `{nodes, cores}`",
     "machine tree, outermost level first (e.g. `racks=2,nodes=4,cores=8`); fan-outs must "
     "multiply to the world size",
     KnobScope::Program, into<&EnvKnobs::topology, parse_topology>},
    {"HDLS_INTER_BACKEND", "centralized | sharded", "`centralized`",
     "backend for interior levels (root queue + relays)", KnobScope::Program,
     into<&EnvKnobs::inter_backend, parse_choice<dls::inter_backend_from_string>>},
    {"HDLS_PREFETCH", kBool, "`0`", "double-buffered asynchronous chunk prefetching",
     KnobScope::Program, into<&EnvKnobs::prefetch, parse_bool>},
    {"HDLS_TRACE", kBool, "`0`",
     "chunk-event tracing into per-worker ring buffers (`trace_explorer` defaults to on)",
     KnobScope::Program, into<&EnvKnobs::trace, parse_bool>},
    {"HDLS_TRANSPORT", "threads | shm", "`threads`", "minimpi substrate of MPI+MPI runs",
     KnobScope::Run, into<&EnvKnobs::transport, parse_choice<minimpi::transport_from_string>>},
    {"HDLS_SIMD", "auto | scalar | native", "`auto`",
     "SIMD backend policy for the batch kernels; `native` fails loudly without a vector "
     "backend",
     KnobScope::Run, into<&EnvKnobs::simd, parse_choice<simd::mode_from_string>>},
    {"HDLS_PIN", "none | compact | scatter", "`none`",
     "worker to CPU placement over the host's sockets", KnobScope::Run,
     into<&EnvKnobs::pin, parse_choice<minimpi::pin_policy_from_string>>},
    {"HDLS_METRICS", kBool, "`0`",
     "background metrics sampler + exposition file + stall watchdog per run", KnobScope::Run,
     into<&EnvKnobs::metrics, parse_bool>},
    {"HDLS_METRICS_PERIOD_MS", kMillis, "`100`", "sampler/watchdog period", KnobScope::Run,
     into<&EnvKnobs::metrics_period, parse_millis>},
    {"HDLS_METRICS_FILE", "non-empty path", "`hdls-metrics.prom`",
     "Prometheus exposition file (written atomically via rename)", KnobScope::Run,
     into<&EnvKnobs::metrics_file, parse_path>},
    {"HDLS_LEASE", kBool, "`0`",
     "lease-based fault tolerance (MPI+MPI only; warned-and-ignored under MPI+OpenMP)",
     KnobScope::Run, into<&EnvKnobs::lease, parse_bool>},
    {"HDLS_LEASE_K", "positive number", "`8`",
     "lease-deadline multiplier over the chunk-time EMA (100 ms floor)", KnobScope::Run,
     into<&EnvKnobs::lease_k, parse_positive>},
    {"HDLS_HEARTBEAT_TIMEOUT_MS", kMillis, "`1000`",
     "heartbeat staleness after which the failure detector declares a rank dead",
     KnobScope::Run, into<&EnvKnobs::heartbeat_timeout, parse_millis>},
    {"HDLS_CHAOS", "kill:<rank>@<pct>%", "none",
     "fault injection: fail-stop a rank at a loop-progress fraction (MPI+MPI with "
     "`HDLS_LEASE=1` only)",
     KnobScope::Run, into<&EnvKnobs::chaos, parse_kill>},
    {"HDLS_MAX_JOBS", "integer >= 1", "`4`", "JobService: max concurrently running jobs",
     KnobScope::Service, into<&EnvKnobs::max_jobs, parse_int<1>>},
    {"HDLS_JOB_QUEUE_DEPTH", "integer >= 0", "`16`",
     "JobService: bounded pending-job queue; submit past it throws `ErrorCode::Resource`",
     KnobScope::Service, into<&EnvKnobs::job_queue_depth, parse_int<0>>},
};

/// Markdown-escapes a table cell: '|' would end the cell.
[[nodiscard]] std::string cell(std::string_view text) {
    std::string out;
    for (const char ch : text) {
        if (ch == '|') {
            out += '\\';
        }
        out += ch;
    }
    return out;
}

/// KnobScope names, in enumerator order.
constexpr std::string_view kScopeNames[] = {"program", "run", "service"};

}  // namespace

std::span<const KnobRow> knob_table() noexcept { return kKnobs; }

EnvKnobs read_env(KnobScope scope) {
    EnvKnobs knobs;
    for (const KnobRow& row : kKnobs) {
        const char* value = row.scope == scope ? std::getenv(row.name.data()) : nullptr;
        if (value == nullptr) {
            continue;
        }
        std::string detail;
        try {
            if (row.parse(value, knobs)) {
                continue;
            }
        } catch (const std::invalid_argument& e) {
            detail = std::string(": ") + e.what();
        }
        throw std::invalid_argument(std::string(row.name) + "='" + value +
                                    "' is malformed (expected " + std::string(row.grammar) +
                                    ")" + detail);
    }
    return knobs;
}

HierConfig config_from_env(HierConfig base) {
    const EnvKnobs env = read_env(KnobScope::Program);
    if (env.schedule) {
        base.inter = env.schedule->inter;
        base.intra = env.schedule->intra;
        base.min_chunk = env.schedule->min_chunk;
        base.levels = env.schedule->levels;
    }
    if (env.topology) {
        base.topology = *env.topology;
    }
    base.inter_backend = env.inter_backend.value_or(base.inter_backend);
    base.prefetch = env.prefetch.value_or(base.prefetch);
    base.trace = env.trace.value_or(base.trace);
    return base;
}

HierConfig resolve_run_config(HierConfig cfg, const EnvKnobs& env) {
    cfg.transport = cfg.transport.value_or(env.transport);
    cfg.simd = cfg.simd.value_or(env.simd);
    cfg.pin = cfg.pin.value_or(env.pin);
    cfg.lease = cfg.lease.value_or(env.lease);
    cfg.lease_k = cfg.lease_k.value_or(env.lease_k);
    cfg.heartbeat_timeout = cfg.heartbeat_timeout.value_or(env.heartbeat_timeout);
    cfg.chaos = cfg.chaos ? cfg.chaos : env.chaos;
    return cfg;
}

std::string render_knob_table() {
    std::string out =
        "| Knob | Values | Default | Scope | Meaning |\n"
        "|---|---|---|---|---|\n";
    for (const KnobRow& row : kKnobs) {
        out += "| `" + std::string(row.name) + "` | `" + cell(row.grammar) + "` | " +
               cell(row.fallback) + " | " + cell(kScopeNames[static_cast<int>(row.scope)]) +
               " | " + cell(row.meaning) + " |\n";
    }
    return out;
}

}  // namespace hdls::core
