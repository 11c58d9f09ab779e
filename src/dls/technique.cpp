#include "dls/technique.hpp"

#include <string>

#include "util/parse.hpp"

namespace hdls::dls {

std::string_view technique_name(Technique t) noexcept {
    switch (t) {
        case Technique::Static:
            return "STATIC";
        case Technique::SS:
            return "SS";
        case Technique::FSC:
            return "FSC";
        case Technique::GSS:
            return "GSS";
        case Technique::TSS:
            return "TSS";
        case Technique::FAC:
            return "FAC";
        case Technique::FAC2:
            return "FAC2";
        case Technique::WF:
            return "WF";
        case Technique::TFSS:
            return "TFSS";
        case Technique::AWFB:
            return "AWF-B";
        case Technique::AWFC:
            return "AWF-C";
        case Technique::AWFD:
            return "AWF-D";
        case Technique::AWFE:
            return "AWF-E";
        case Technique::RND:
            return "RND";
    }
    return "?";
}

std::optional<Technique> technique_from_string(std::string_view name) noexcept {
    if (const auto t = util::from_name(name, all_techniques(), technique_name)) {
        return t;
    }
    // Accept the dash-less spellings too ("AWFB" for "AWF-B").
    if (name.size() == 4 && util::iequals(name.substr(0, 3), "AWF")) {
        return technique_from_string("AWF-" + std::string(name.substr(3)));
    }
    return std::nullopt;
}

bool is_adaptive(Technique t) noexcept {
    switch (t) {
        case Technique::AWFB:
        case Technique::AWFC:
        case Technique::AWFD:
        case Technique::AWFE:
            return true;
        default:
            return false;
    }
}

bool supports_step_indexed(Technique t) noexcept {
    switch (t) {
        case Technique::Static:
        case Technique::SS:
        case Technique::FSC:
        case Technique::GSS:
        case Technique::TSS:
        case Technique::FAC2:
        case Technique::TFSS:
        case Technique::RND:
            return true;
        case Technique::FAC:   // needs the exact remaining-iterations count
        case Technique::WF:    // needs the requester identity *and* batch state
        case Technique::AWFB:
        case Technique::AWFC:
        case Technique::AWFD:
        case Technique::AWFE:
            return false;
    }
    return false;
}

bool supports_remaining_based(Technique t) noexcept {
    switch (t) {
        case Technique::FAC:  // needs the exact remaining-iterations count
        case Technique::WF:   // FAC2 batches scaled by static node weights
        case Technique::AWFB:
        case Technique::AWFC:
        case Technique::AWFD:
        case Technique::AWFE:
            return true;
        default:
            return false;
    }
}

bool supports_internode(Technique t) noexcept {
    return supports_step_indexed(t) || supports_remaining_based(t);
}

const std::vector<Technique>& all_techniques() {
    static const std::vector<Technique> kAll = {
        Technique::Static, Technique::SS,   Technique::FSC,  Technique::GSS,  Technique::TSS,
        Technique::FAC,    Technique::FAC2, Technique::WF,   Technique::TFSS, Technique::AWFB,
        Technique::AWFC,   Technique::AWFD, Technique::AWFE, Technique::RND};
    return kAll;
}

const std::vector<Technique>& paper_internode_techniques() {
    static const std::vector<Technique> kInter = {Technique::Static, Technique::GSS,
                                                  Technique::TSS, Technique::FAC2};
    return kInter;
}

const std::vector<Technique>& paper_intranode_techniques() {
    static const std::vector<Technique> kIntra = {Technique::Static, Technique::SS, Technique::GSS,
                                                  Technique::TSS, Technique::FAC2};
    return kIntra;
}

bool openmp_supports(Technique t) noexcept {
    switch (t) {
        case Technique::Static:  // schedule(static)
        case Technique::SS:      // schedule(dynamic,1)
        case Technique::GSS:     // schedule(guided,1)
            return true;
        default:
            return false;
    }
}

}  // namespace hdls::dls
