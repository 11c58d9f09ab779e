#include "dls/params.hpp"

#include <stdexcept>

namespace hdls::dls {

void LoopParams::validate() const {
    if (total_iterations < 0) {
        throw std::invalid_argument("LoopParams: total_iterations must be >= 0");
    }
    if (workers < 1) {
        throw std::invalid_argument("LoopParams: workers must be >= 1");
    }
    if (sigma < 0.0) {
        throw std::invalid_argument("LoopParams: sigma must be >= 0");
    }
    if (mu <= 0.0) {
        throw std::invalid_argument("LoopParams: mu must be > 0");
    }
    if (min_chunk < 1) {
        throw std::invalid_argument("LoopParams: min_chunk must be >= 1");
    }
    if (fsc_chunk < 0 || tss_first < 0 || tss_last < 0 || rnd_lo < 0 || rnd_hi < 0) {
        throw std::invalid_argument("LoopParams: sizes must be >= 0");
    }
    if (tss_first != 0 && tss_last != 0 && tss_last > tss_first) {
        throw std::invalid_argument("LoopParams: tss_last must be <= tss_first");
    }
    if (rnd_lo != 0 && rnd_hi != 0 && rnd_hi < rnd_lo) {
        throw std::invalid_argument("LoopParams: rnd_hi must be >= rnd_lo");
    }
    if (overhead_h < 0.0) {
        throw std::invalid_argument("LoopParams: overhead_h must be >= 0");
    }
}

}  // namespace hdls::dls
