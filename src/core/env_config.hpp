#pragma once
/// \file env_config.hpp
/// Runtime configuration through the environment — the flexibility the
/// paper's Section 3 calls for ("one input parameter specifies the
/// selected DLS technique", like OpenMP's schedule(runtime) clause).
///
/// Every HDLS_* knob is one row of knob_table(): name, value grammar,
/// default, meaning, scope and parser. The table drives parsing (read_env,
/// the one place the library reads the environment), the error contract
/// and the reference table in docs/knobs.md (render_knob_table; a test
/// keeps the file identical to the rendering).
///
/// Error contract: an unset knob means its default. A set value its
/// parser rejects — the empty string included — throws a one-line
/// std::invalid_argument naming the knob, the value and the grammar. A
/// typo silently reverting to a default would change what a run measures.
///
/// Precedence: a field the caller set wins; the environment fills only a
/// field left unset (std::nullopt); the table default fills the rest.

#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace hdls::core {

/// Parses "L0+L1[+L2...][,min_chunk=k]" (case-insensitive, spaces
/// allowed). Two techniques set inter/intra; more additionally fill
/// HierConfig::levels (backends unset — they inherit inter_backend).
/// Returns std::nullopt with no side effects on malformed input.
[[nodiscard]] std::optional<HierConfig> parse_schedule(std::string_view text);

/// Renders a config back to its canonical string ("GSS+STATIC,min_chunk=4";
/// the suffix is omitted when min_chunk == 1; deeper configs render every
/// level's technique). parse(format(x)) == x.
[[nodiscard]] std::string format_schedule(const HierConfig& cfg);

/// Parses "MPI+MPI" / "MPI+OpenMP" (several common spellings accepted).
[[nodiscard]] std::optional<Approach> parse_approach(std::string_view text);

/// Parses "name=fanout,name=fanout,..." (case-preserving names, spaces
/// allowed, outermost level first). Throws std::invalid_argument with a
/// one-line message for empty input, empty level entries, missing '=',
/// empty names or fan-outs < 1. The fan-out product is validated against
/// the world size where the topology is used (resolve_hierarchy /
/// minimpi::Runtime).
[[nodiscard]] std::vector<minimpi::TopologyLevel> parse_topology(std::string_view text);

/// Renders a tree back to its canonical string ("racks=2,nodes=4,cores=8").
[[nodiscard]] std::string format_topology(const std::vector<minimpi::TopologyLevel>& tree);

/// Parses a chaos spec "kill:<rank>@<pct>%" (spaces allowed; the trailing
/// '%' optional), e.g. "kill:1@50%": world rank 1 fail-stops once loop
/// progress passes 50% of the iteration space. Throws
/// std::invalid_argument with a one-line message on anything else.
[[nodiscard]] ChaosSpec parse_chaos(std::string_view text);

/// Where a knob takes effect.
enum class KnobScope {
    Program,  ///< read into the program's HierConfig by config_from_env
    Run,      ///< resolved per run: run_hierarchical (resolve_run_config),
              ///< and minimpi::Runtime::run's environment overload
    Service,  ///< resolved when a JobService is constructed
};

/// The knobs of one scope as read from the environment. Program knobs are
/// std::nullopt when unset (the program's own choice stands); run and
/// service knobs hold their table default when unset.
struct EnvKnobs {
    // Program scope.
    std::optional<HierConfig> schedule;  ///< only the schedule fields are set
    std::optional<std::vector<minimpi::TopologyLevel>> topology;
    std::optional<dls::InterBackend> inter_backend;
    std::optional<bool> trace;
    // Run scope.
    minimpi::TransportKind transport = minimpi::TransportKind::Threads;
    simd::SimdMode simd = simd::SimdMode::Auto;
    minimpi::PinPolicy pin = minimpi::PinPolicy::None;
    bool metrics = false;
    std::chrono::milliseconds metrics_period{100};
    std::string metrics_file = "hdls-metrics.prom";
    bool lease = false;
    double lease_k = 8.0;
    std::chrono::milliseconds heartbeat_timeout{1000};
    std::optional<ChaosSpec> chaos;  ///< std::nullopt = no injection
    // Service scope.
    int max_jobs = 4;
    int job_queue_depth = 16;
};

/// One row of the knob table.
struct KnobRow {
    std::string_view name;      ///< the environment variable (NUL-terminated)
    std::string_view grammar;   ///< accepted values, as quoted in errors
    std::string_view fallback;  ///< the default, as documented (markdown)
    std::string_view meaning;   ///< one line of documentation (markdown)
    KnobScope scope;
    /// Stores a set value into its EnvKnobs field; false (or a thrown
    /// std::invalid_argument carrying detail) rejects it.
    bool (*parse)(std::string_view value, EnvKnobs& into);
};

/// Every HDLS_* knob, in documentation order.
[[nodiscard]] std::span<const KnobRow> knob_table() noexcept;

/// Reads every knob of `scope` from the environment; throws per the error
/// contract above.
[[nodiscard]] EnvKnobs read_env(KnobScope scope);

/// The program-scope knobs (HDLS_SCHEDULE, HDLS_TOPOLOGY,
/// HDLS_INTER_BACKEND, HDLS_TRACE) applied over the
/// program's own configuration: a set knob replaces the matching fields of
/// `base` (HDLS_SCHEDULE only the schedule: techniques, levels,
/// min_chunk), an unset one keeps them. Programs apply their explicit CLI
/// flags afterwards, so a flag beats the environment.
[[nodiscard]] HierConfig config_from_env(HierConfig base);

/// The run-scope fields of `cfg` (transport, simd, pin, lease, lease_k,
/// heartbeat_timeout, chaos) after precedence: a field the caller set
/// wins, `env` (read_env(KnobScope::Run)) fills the rest. Every one of
/// them is set on return, except chaos when no injection is asked for.
[[nodiscard]] HierConfig resolve_run_config(HierConfig cfg, const EnvKnobs& env);

/// The markdown reference table of docs/knobs.md, rendered from
/// knob_table() (header and one line per knob, newline-terminated).
[[nodiscard]] std::string render_knob_table();

}  // namespace hdls::core
