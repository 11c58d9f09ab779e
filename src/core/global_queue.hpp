#pragma once
/// \file global_queue.hpp
/// The *global work queue* of the paper's Figure 1.
///
/// An RMA window hosted on rank 0 of a communicator holding one value of
/// the distributed chunk-calculation protocol (the paper's ref [15]): the
/// latest scheduling step. Every rank builds the same dls::StepTable — the
/// step-ordered tiling of the loop, a pure function of the technique and
/// the loop parameters — so a chunk is one atomic fetch-and-op plus a local
/// lookup, with no master process:
///
///     step          <- fetch_add(+1, window[kStep])
///     [start, size] <- table.at(step)      // step >= table.steps() => exhausted
///
/// Which chunk a step maps to never depends on timing, so the chunk
/// multiset is the same on every run.
///
/// The technique's "worker count" is the number of *level-1 schedulable
/// entities* — compute nodes for the paper's inter-node level — which is
/// why it is a constructor parameter independent of comm.size().

#include <cstdint>
#include <optional>

#include "core/inter_queue.hpp"
#include "dls/chunk_formulas.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

class GlobalWorkQueue final : public InterQueue {
public:
    /// One level-1 chunk.
    using Chunk = InterQueue::Chunk;

    /// Collective over `comm`. `level_workers` is P in the chunk formulas
    /// (the paper uses the node count). Rank 0 hosts and zero-initializes
    /// the window; everyone leaves through a barrier.
    GlobalWorkQueue(const minimpi::Comm& comm, std::int64_t total_iterations,
                    dls::Technique technique, int level_workers, std::int64_t min_chunk)
        : comm_(comm), technique_(technique), table_(make_table(technique, total_iterations,
                                                                 level_workers, min_chunk)) {
        window_ = minimpi::Window::allocate_shared(
            comm, comm.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (comm.rank() == 0) {
            window_.shared_span<std::int64_t>(0)[kStep] = 0;
        }
        window_.sync();
        comm_.barrier();
    }

    /// Acquires the next chunk, or std::nullopt once the loop is exhausted.
    [[nodiscard]] std::optional<Chunk> try_acquire() override {
        const std::int64_t step = window_.fetch_add<std::int64_t>(1, 0, kStep);
        if (step >= table_.steps()) {
            return std::nullopt;
        }
        const dls::StepRange range = table_.at(step);
        ++acquired_;
        return Chunk{range.start, range.size, step};
    }

    /// Chunks acquired through *this* handle (per-rank statistic).
    [[nodiscard]] std::int64_t acquired() const noexcept override { return acquired_; }

    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Collective teardown.
    void free() override {
        comm_.barrier();
        window_.free();
    }

private:
    [[nodiscard]] static dls::StepTable make_table(dls::Technique technique,
                                                   std::int64_t total_iterations,
                                                   int level_workers, std::int64_t min_chunk) {
        dls::LoopParams params;
        params.total_iterations = total_iterations;
        params.workers = level_workers;
        params.min_chunk = min_chunk;
        params.validate();
        if (!dls::supports_step_indexed(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "GlobalWorkQueue: technique lacks a step-indexed form");
        }
        return dls::StepTable(technique, params);
    }

    static constexpr std::size_t kStep = 0;

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::Technique technique_;
    dls::StepTable table_;
    std::int64_t acquired_ = 0;
};

}  // namespace hdls::core
