#pragma once
/// \file slot_governor.hpp
/// Weighted-fair multiplexing of concurrent jobs over a fixed pool of
/// execution slots — the arbitration core of the JobService.
///
/// The governor owns W slots (one per physical worker of the shared
/// cluster shape). Every active job holds an *entitlement*: an integer
/// number of slots apportioned by the same largest-remainder arithmetic
/// the sharded queue uses across nodes (dls::shard_partition), here
/// applied across jobs with weight = priority × remaining iterations.
/// Entitlements are re-apportioned at every job arrival/departure and at
/// every chunk completion (the service's refill boundary), so a short job
/// submitted behind a long one is entitled to slots immediately instead
/// of starving until the long job drains — with the floor that every
/// active job keeps at least one slot whenever jobs <= slots, so progress
/// (and hence termination) is guaranteed.
///
/// Ranks interact through the per-job ChunkGate: begin_chunk blocks while
/// the job is at its entitlement (slots currently in use >= entitled);
/// end_chunk releases the slot, records progress and triggers the
/// re-apportionment. Gating happens strictly *after* chunk acquisition
/// (see exec_hooks.hpp), so the scheduling chain's refill/termination
/// protocol never waits on another job's slots.
///
/// Fairness is measured, not assumed: the governor integrates each job's
/// occupancy (slot-seconds actually held) and entitlement (slot-seconds
/// it was entitled to and could use) over time, so tests and the
/// multitenancy bench can assert measured share ≈ priority-weighted
/// entitlement directly. The integrated entitlement is capped by the
/// job's outstanding demand: nothing while its run starts up, and in its
/// tail no more slots than the chunks it has left.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/exec_hooks.hpp"

namespace hdls::core {

class SlotGovernor {
public:
    explicit SlotGovernor(int slots);

    SlotGovernor(const SlotGovernor&) = delete;
    SlotGovernor& operator=(const SlotGovernor&) = delete;

    /// Registers a job with the given scheduling weight inputs and
    /// returns its id. `remaining_iterations` seeds the work-remaining
    /// half of the weight (clamped to >= 1 so zero-length jobs still get
    /// apportioned); `priority` must be > 0.
    [[nodiscard]] std::uint64_t add_job(double priority, std::int64_t remaining_iterations);

    /// Deregisters a job (typically after its run returned) and
    /// re-apportions its slots across the survivors.
    void remove_job(std::uint64_t job);

    /// Marks a job cancelled: its gate's begin_chunk returns false from
    /// now on (in-flight chunks complete and release normally).
    void cancel_job(std::uint64_t job);

    /// The gate the job's ranks go through. Valid until remove_job.
    [[nodiscard]] ChunkGate& gate(std::uint64_t job);

    /// Point-in-time and integrated fairness accounting for one job.
    struct JobShare {
        int entitlement = 0;            ///< slots currently apportioned
        int running = 0;                ///< slots currently held
        double occupancy_seconds = 0;   ///< ∫ running dt (slot-seconds used)
        double entitled_seconds = 0;    ///< ∫ min(entitlement, demand) dt
        std::int64_t remaining = 0;     ///< iterations not yet completed
        std::int64_t completed = 0;     ///< iterations completed through the gate
    };
    [[nodiscard]] JobShare share(std::uint64_t job) const;

    /// Membership loss/recovery: caps the apportionable pool at
    /// `live_slots` (1..slots()) and re-apportions every job's entitlement
    /// over the survivors immediately — the JobService analogue of
    /// shard_partition re-running over surviving ranks when the failure
    /// detector removes a worker. Jobs over their shrunk entitlement
    /// release slots at their next chunk boundary (begin_chunk blocks);
    /// in-flight chunks are never interrupted.
    void set_capacity(int live_slots);
    [[nodiscard]] int capacity() const;

    [[nodiscard]] int slots() const noexcept { return slots_; }
    [[nodiscard]] int active_jobs() const;

private:
    struct Job;

    /// The ChunkGate face of one job (a thin forwarder; the governor's
    /// mutex serializes everything).
    class Gate final : public ChunkGate {
    public:
        Gate(SlotGovernor* owner, std::uint64_t job) : owner_(owner), job_(job) {}
        [[nodiscard]] bool begin_chunk(int rank) override {
            return owner_->begin_chunk(job_, rank);
        }
        void end_chunk(int rank, std::int64_t iterations) override {
            owner_->end_chunk(job_, rank, iterations);
        }

    private:
        SlotGovernor* owner_;
        std::uint64_t job_;
    };

    struct Job {
        double priority = 1.0;
        std::int64_t remaining = 1;
        std::int64_t completed = 0;
        std::int64_t last_chunk = 0;  ///< iterations of the last completed chunk
        int entitlement = 0;
        int running = 0;
        bool begun = false;  ///< a chunk has passed begin_chunk
        bool cancelled = false;
        double occupancy_seconds = 0.0;
        double entitled_seconds = 0.0;
        std::unique_ptr<Gate> gate;

        /// The entitlement capped by the outstanding demand: none before
        /// the first chunk begins (the run is still starting up), then the
        /// chunks the remaining iterations make up, sized like the last
        /// completed chunk (uncapped until one has completed).
        [[nodiscard]] int usable_entitlement() const noexcept;
    };

    [[nodiscard]] bool begin_chunk(std::uint64_t job, int rank);
    void end_chunk(std::uint64_t job, int rank, std::int64_t iterations);

    /// Advances the occupancy/entitlement integrals to `now` (locked).
    void advance_locked(std::chrono::steady_clock::time_point now);
    /// Largest-remainder apportionment of the slots across the live jobs
    /// by priority × remaining, with the ≥1-slot progress floor (locked).
    void apportion_locked();

    const int slots_;
    /// Apportionable slots right now (<= slots_; shrunk by set_capacity
    /// on membership loss).
    int capacity_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Job> jobs_;
    std::uint64_t next_id_ = 0;
    std::chrono::steady_clock::time_point last_advance_;
};

}  // namespace hdls::core
