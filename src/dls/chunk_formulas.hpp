#pragma once
/// \file chunk_formulas.hpp
/// Step-indexed ("distributed chunk calculation") chunk-size formulas.
///
/// This is the form required by the paper's execution model: a worker
/// atomically increments the *latest scheduling step* counter in the global
/// (or node-local) work queue, then computes its chunk size locally from the
/// step index alone — no master and no serialized chunk computation
/// (Eleliemy & Ciorba, "Dynamic Loop Scheduling Using MPI Passive-Target
/// Remote Memory Access", PDP 2019; the paper's ref [15]).
///
/// The returned value is a *size hint*. Its clamped form is a pure function
/// of the step index too: step s covers [start_s, start_s + size_s) with
///
///   size_s  = min(hint_s, N - start_s)
///   start_s = size_0 + ... + size_{s-1}     // a prefix sum, computed locally
///
/// StepTable holds that step-ordered tiling, so a queue hands out a chunk
/// with *one* atomic — the step claim — and a local lookup:
///
///   step          = fetch_add(&queue.step, 1)
///   [start, size] = StepTable(tech, params).at(step)   // step >= steps() => done
///
/// The invariant tested by the suite: for every technique and every (N, P),
/// the table's steps 0,1,2,... cover [0, N) exactly once, in order.

#include <cstdint>
#include <vector>

#include "dls/params.hpp"
#include "dls/technique.hpp"

namespace hdls::dls {

/// Chunk-size hint for scheduling step `step` (0-based). `worker` is only
/// consulted by techniques whose step-indexed form is worker-dependent
/// (none of the paper's five; kept for extension symmetry).
/// Preconditions: supports_step_indexed(t) and params validated.
/// Throws std::invalid_argument for techniques without a step-indexed form.
[[nodiscard]] std::int64_t chunk_size_for_step(Technique t, const LoopParams& p,
                                               std::int64_t step, int worker = 0);

/// One step's share of the iteration space: [start, start + size).
struct StepRange {
    std::int64_t start = 0;
    std::int64_t size = 0;
};

/// The step-ordered tiling of [0, N) by a step-indexed technique: step s
/// gets its chunk_size_for_step hint, clamped to the iterations left after
/// steps 0..s-1. SS, FSC and STATIC use closed forms; the other techniques
/// keep a prefix table of the step boundaries, built once (O(steps())).
/// Throws std::invalid_argument for techniques without a step-indexed form.
class StepTable {
public:
    StepTable(Technique t, const LoopParams& p);

    /// Steps that tile [0, N); 0 for an empty loop.
    [[nodiscard]] std::int64_t steps() const noexcept { return steps_; }

    /// The range of `step`; precondition 0 <= step < steps().
    [[nodiscard]] StepRange at(std::int64_t step) const noexcept;

private:
    enum class Form { Uniform, Static, Prefix };

    Form form_ = Form::Prefix;
    std::int64_t total_ = 0;
    std::int64_t unit_ = 0;   ///< Uniform: the chunk size; Static: floor(N/P)
    std::int64_t extra_ = 0;  ///< Static: N mod P (steps below it get one more)
    std::int64_t steps_ = 0;
    std::vector<std::int64_t> bounds_;  ///< Prefix: steps() + 1 step boundaries
};

// --- Individual closed forms (exposed for tests and documentation) ---------

/// STATIC: P chunks; chunk s gets floor(N/P) + 1 extra while s < N mod P.
[[nodiscard]] std::int64_t static_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// GSS closed form: ceil((N/P) * (1 - 1/P)^step), >= min_chunk.
[[nodiscard]] std::int64_t gss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// TSS linear decrease: F - step*delta with F = ceil(N/2P), L = 1,
/// S = ceil(2N/(F+L)), delta = (F-L)/(S-1).
[[nodiscard]] std::int64_t tss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// FAC2: batch b = floor(step/P); chunk = ceil(N / (2^(b+1) * P)).
[[nodiscard]] std::int64_t fac2_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// TFSS: batch b = floor(step/P); chunk = mean of the next P TSS chunk sizes.
[[nodiscard]] std::int64_t tfss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// FSC: fixed chunk from Kruskal & Weiss' formula
/// (sqrt(2)*N*h / (sigma*P*sqrt(ln P)))^(2/3), or p.fsc_chunk when given.
[[nodiscard]] std::int64_t fsc_chunk(const LoopParams& p) noexcept;

/// RND: deterministic hash of (seed, step) mapped to [lo, hi].
[[nodiscard]] std::int64_t rnd_chunk(const LoopParams& p, std::int64_t step) noexcept;

}  // namespace hdls::dls
