#pragma once
/// \file team.hpp
/// Fork-join thread team with OpenMP-style worksharing loops.
///
/// A ThreadTeam owns `size()` persistent worker threads. `parallel(body)`
/// corresponds to `#pragma omp parallel`: every thread runs body(thread_id)
/// and the call returns after an implicit join barrier. Inside the parallel
/// region, `for_chunks`/`for_each` correspond to `#pragma omp for
/// schedule(...) [nowait]` with the implicit end-of-loop barrier the paper's
/// Figure 2 identifies as the MPI+OpenMP bottleneck — unless `nowait` is
/// set, mirroring the future-work discussion in the paper's Section 6.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dls/chunk_formulas.hpp"
#include "minimpi/host_topology.hpp"
#include "ompsim/schedule.hpp"

namespace hdls::ompsim {

/// Persistent fork-join team (non-copyable; joins its threads on destruction).
class ThreadTeam {
public:
    /// Chunk-granular loop body: [begin, end) executed by `thread_id`.
    using ChunkBody = std::function<void(std::int64_t begin, std::int64_t end, int thread_id)>;

    /// Where this team's members land on the host (HDLS_PIN).
    struct Placement {
        minimpi::PinPolicy policy = minimpi::PinPolicy::None;
        /// Socket layout to plan over; empty (no sockets) means "detect at
        /// team construction". Tests inject HostTopology::uniform here.
        minimpi::HostTopology host;
        /// Global worker index of this team's thread 0, so co-located teams
        /// (one per rank under the threads transport) interleave over the
        /// host CPUs instead of stacking onto the same cores.
        int first_worker = 0;
    };

    explicit ThreadTeam(int num_threads);
    ThreadTeam(int num_threads, const Placement& placement);
    ~ThreadTeam();

    ThreadTeam(const ThreadTeam&) = delete;
    ThreadTeam& operator=(const ThreadTeam&) = delete;

    [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

    /// Fork-join parallel region: body(thread_id) runs on every team member
    /// (the calling thread acts as thread 0, like the OpenMP master).
    /// Returns after all members finish. Not reentrant (no nested regions).
    void parallel(const std::function<void(int thread_id)>& body);

    /// Team-wide barrier; callable only inside parallel().
    void barrier();

    /// Worksharing loop over [begin, end) — callable only inside parallel();
    /// every team member must reach it (standard OpenMP rule). Implicit
    /// barrier at the end unless opts.nowait.
    void for_chunks(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                    const ChunkBody& body);

    /// Per-iteration convenience wrapper over for_chunks.
    void for_each(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                  const std::function<void(std::int64_t i)>& body);

    /// One-call convenience: parallel region containing a single
    /// worksharing loop (what `#pragma omp parallel for` expands to).
    void parallel_for(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                      const ChunkBody& body);

    /// The CPU thread `thread_id` is pinned to, or -1 when unpinned.
    [[nodiscard]] int pinned_cpu(int thread_id) const noexcept;
    [[nodiscard]] minimpi::PinPolicy pin_policy() const noexcept { return pin_policy_; }

    /// Runs probe(thread_id) on every member (a full parallel region) and
    /// returns the per-thread results indexed by thread id. This is how
    /// per-worker kernel throughput is measured *on the CPUs the workers
    /// actually occupy* to seed the honest AWF/WF weights.
    [[nodiscard]] std::vector<double> measure_per_thread(
        const std::function<double(int thread_id)>& probe);

private:
    /// Shared state of one worksharing construct. Slots are recycled
    /// round-robin; the generation tag pairs threads with the right
    /// construct even when `nowait` lets them run ahead.
    struct Workshare {
        std::mutex init_mutex;
        std::uint64_t generation = 0;  // construct number + 1; 0 = free
        std::int64_t begin = 0;
        std::int64_t end = 0;
        std::int64_t chunk = 1;
        Schedule schedule = Schedule::Static;
        std::atomic<std::int64_t> next{0};       // dynamic/guided cursor
        std::atomic<std::int64_t> step{0};       // tss/fac2 scheduling step
        std::optional<dls::StepTable> steps;     // tss/fac2 step -> range
        std::atomic<int> done_threads{0};        // for slot-exhaustion check
    };

    static constexpr std::size_t kWorkshareSlots = 64;

    void worker_main(int thread_id, const std::stop_token& stop);
    void run_region_as(int thread_id);
    Workshare& acquire_workshare(std::int64_t begin, std::int64_t end, const ForOptions& opts);
    void dispatch(Workshare& ws, const ForOptions& opts, const ChunkBody& body, int thread_id);

    // thread-id of the calling thread within the current region (TLS).
    static thread_local int current_thread_id_;

    // Placement plan: per-thread CPU (or -1), set before workers start.
    minimpi::PinPolicy pin_policy_ = minimpi::PinPolicy::None;
    std::vector<int> pin_cpus_;
    // Thread 0 is the caller, whose affinity we change; restored on destroy.
    std::vector<int> caller_affinity_;

    std::vector<std::jthread> workers_;

    // Region dispatch.
    std::mutex region_mutex_;
    std::condition_variable region_cv_;
    std::uint64_t region_generation_ = 0;
    const std::function<void(int)>* region_body_ = nullptr;
    std::atomic<int> region_done_{0};
    std::condition_variable region_done_cv_;
    bool in_region_ = false;

    // Centralized sense-reversing barrier.
    std::mutex barrier_mutex_;
    std::condition_variable barrier_cv_;
    int barrier_arrived_ = 0;
    std::uint64_t barrier_epoch_ = 0;

    // Worksharing constructs.
    std::vector<std::unique_ptr<Workshare>> workshares_;
    /// Per-thread count of worksharing constructs encountered in the
    /// current region (all threads see the same sequence by the OpenMP
    /// "every thread must encounter the same constructs" rule).
    std::vector<std::uint64_t> ws_counts_;
};

}  // namespace hdls::ompsim
