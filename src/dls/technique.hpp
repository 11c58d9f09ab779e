#pragma once
/// \file technique.hpp
/// Enumeration and registry of the dynamic loop self-scheduling (DLS)
/// techniques implemented by this library.
///
/// The paper evaluates STATIC, SS, GSS, TSS and FAC2; the remaining
/// techniques (FSC, FAC, WF, TFSS, AWF-B/C/D/E, RND) are the direct
/// descendants/ancestors the paper's Section 2 surveys, implemented here as
/// extensions so the library is usable as a general DLS toolbox (the "DLS
/// library" the paper's Section 3 plans as future work).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hdls::dls {

/// Loop self-scheduling techniques.
enum class Technique {
    Static,  ///< one chunk of ~N/P per worker; lowest overhead
    SS,      ///< pure self-scheduling, chunk = 1; highest overhead, best balance
    FSC,     ///< fixed-size chunking (Kruskal & Weiss)
    GSS,     ///< guided self-scheduling: chunk = ceil(remaining/P)
    TSS,     ///< trapezoid self-scheduling: linear decrease from N/2P to 1
    FAC,     ///< factoring with sigma/mu-derived batch ratio (Hummel et al.)
    FAC2,    ///< practical factoring: each batch = half the remaining, P chunks
    WF,      ///< weighted factoring: FAC2 scaled by static worker weights
    TFSS,    ///< trapezoid factoring self-scheduling (Chronopoulos et al.)
    AWFB,    ///< adaptive weighted factoring, batch-boundary adaptation
    AWFC,    ///< adaptive weighted factoring, chunk-boundary adaptation
    AWFD,    ///< AWF-B variant whose rates include scheduling overhead time
    AWFE,    ///< AWF-C variant whose rates include scheduling overhead time
    RND,     ///< random chunk sizes in [lo, hi] (Ciorba et al., iWomp'18)
};

/// Canonical short name ("STATIC", "SS", "GSS", "TSS", "FAC2", ...).
[[nodiscard]] std::string_view technique_name(Technique t) noexcept;

/// Parses a canonical name (case-insensitive); std::nullopt if unknown.
[[nodiscard]] std::optional<Technique> technique_from_string(std::string_view name) noexcept;

/// True if the technique adapts its chunk sizes from runtime feedback
/// (the per-node feedback region that awf_weights reads).
[[nodiscard]] bool is_adaptive(Technique t) noexcept;

/// True if chunk sizes can be computed from the scheduling-step index alone
/// (the *distributed chunk-calculation* requirement; Eleliemy & Ciorba, PDP'19).
/// Adaptive techniques and FAC (which needs the exact remaining count) are
/// excluded.
[[nodiscard]] bool supports_step_indexed(Technique t) noexcept;

/// True if the technique has a *remaining-count-based* distributed form: the
/// chunk size is computable from the exact remaining-iterations count (a
/// CAS-protected window cell) plus, for the weighted family, the requester's
/// current weight (static for WF, derived from the per-node feedback region
/// for AWF-B/C/D/E). These techniques are servable at the inter-node level
/// through the adaptive global queue — still no master process.
[[nodiscard]] bool supports_remaining_based(Technique t) noexcept;

/// True if the technique is usable at the inter-node (first) level under
/// the distributed protocol, through either form:
/// supports_step_indexed(t) || supports_remaining_based(t).
[[nodiscard]] bool supports_internode(Technique t) noexcept;

/// All techniques, in declaration order.
[[nodiscard]] const std::vector<Technique>& all_techniques();

/// The techniques the paper uses at the inter-node (first) level.
[[nodiscard]] const std::vector<Technique>& paper_internode_techniques();

/// The techniques the paper uses at the intra-node (second) level.
[[nodiscard]] const std::vector<Technique>& paper_intranode_techniques();

/// The intra-node techniques expressible with the (Intel) OpenMP `schedule`
/// clause: STATIC -> schedule(static), SS -> schedule(dynamic,1),
/// GSS -> schedule(guided,1). TSS/FAC2 are not (Table 1 of the paper).
[[nodiscard]] bool openmp_supports(Technique t) noexcept;

}  // namespace hdls::dls
