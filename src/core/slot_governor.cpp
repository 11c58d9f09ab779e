#include "core/slot_governor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dls/sharding.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

SlotGovernor::SlotGovernor(int slots)
    : slots_(slots), capacity_(slots), last_advance_(Clock::now()) {
    if (slots < 1) {
        throw std::invalid_argument("SlotGovernor: need at least one slot");
    }
}

void SlotGovernor::set_capacity(int live_slots) {
    if (live_slots < 1 || live_slots > slots_) {
        throw std::invalid_argument("SlotGovernor::set_capacity: live slots must be in [1, " +
                                    std::to_string(slots_) + "]");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    advance_locked(Clock::now());
    capacity_ = live_slots;
    apportion_locked();
    cv_.notify_all();
}

int SlotGovernor::capacity() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

std::uint64_t SlotGovernor::add_job(double priority, std::int64_t remaining_iterations) {
    if (!(priority > 0.0)) {
        throw std::invalid_argument("SlotGovernor: job priority must be > 0");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    advance_locked(Clock::now());
    const std::uint64_t id = next_id_++;
    Job& job = jobs_[id];
    job.priority = priority;
    job.remaining = std::max<std::int64_t>(remaining_iterations, 1);
    job.gate = std::make_unique<Gate>(this, id);
    apportion_locked();
    cv_.notify_all();
    return id;
}

void SlotGovernor::remove_job(std::uint64_t job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    advance_locked(Clock::now());
    jobs_.erase(job);
    apportion_locked();
    cv_.notify_all();
}

void SlotGovernor::cancel_job(std::uint64_t job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    if (it != jobs_.end()) {
        it->second.cancelled = true;
        cv_.notify_all();
    }
}

ChunkGate& SlotGovernor::gate(std::uint64_t job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) {
        throw std::invalid_argument("SlotGovernor: unknown job id");
    }
    return *it->second.gate;
}

SlotGovernor::JobShare SlotGovernor::share(std::uint64_t job) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    // advance_locked is non-const by design (it mutates integrals); read
    // the integrals as of the last event plus the current partial span.
    const auto it = jobs_.find(job);
    JobShare s;
    if (it == jobs_.end()) {
        return s;
    }
    const double dt = std::chrono::duration<double>(Clock::now() - last_advance_).count();
    const Job& j = it->second;
    s.entitlement = j.entitlement;
    s.running = j.running;
    s.occupancy_seconds = j.occupancy_seconds + j.running * dt;
    s.entitled_seconds = j.entitled_seconds + j.usable_entitlement() * dt;
    s.remaining = j.remaining;
    s.completed = j.completed;
    return s;
}

int SlotGovernor::active_jobs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(jobs_.size());
}

bool SlotGovernor::begin_chunk(std::uint64_t job, int /*rank*/) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto predicate = [&]() -> bool {
        const auto it = jobs_.find(job);
        if (it == jobs_.end()) {
            return true;  // job vanished: treat as cancelled below
        }
        return it->second.cancelled || it->second.running < it->second.entitlement;
    };
    cv_.wait(lock, predicate);
    const auto it = jobs_.find(job);
    if (it == jobs_.end() || it->second.cancelled) {
        return false;
    }
    advance_locked(Clock::now());
    ++it->second.running;
    it->second.begun = true;
    return true;
}

void SlotGovernor::end_chunk(std::uint64_t job, int /*rank*/, std::int64_t iterations) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) {
        return;
    }
    advance_locked(Clock::now());
    Job& j = it->second;
    j.running = std::max(j.running - 1, 0);
    j.completed += iterations;
    j.remaining = std::max<std::int64_t>(j.remaining - iterations, 0);
    if (iterations > 0) {
        j.last_chunk = iterations;
    }
    // The service's refill boundary: every completed chunk shrinks this
    // job's remaining-work weight, so the apportionment drifts toward
    // jobs with more work left (and newly arrived short jobs) instead of
    // locking in the admission-time split.
    apportion_locked();
    cv_.notify_all();
}

void SlotGovernor::advance_locked(Clock::time_point now) {
    const double dt = std::chrono::duration<double>(now - last_advance_).count();
    if (dt > 0.0) {
        for (auto& [id, j] : jobs_) {
            j.occupancy_seconds += j.running * dt;
            j.entitled_seconds += j.usable_entitlement() * dt;
        }
    }
    last_advance_ = now;
}

int SlotGovernor::Job::usable_entitlement() const noexcept {
    if (!begun) {
        return 0;
    }
    if (last_chunk <= 0) {
        return entitlement;
    }
    const std::int64_t chunks_left = (remaining + last_chunk - 1) / last_chunk;
    return static_cast<int>(std::min<std::int64_t>(entitlement, chunks_left));
}

void SlotGovernor::apportion_locked() {
    if (jobs_.empty()) {
        return;
    }
    const int n = static_cast<int>(jobs_.size());
    std::vector<double> weights;
    weights.reserve(static_cast<std::size_t>(n));
    std::vector<Job*> order;
    order.reserve(static_cast<std::size_t>(n));
    for (auto& [id, j] : jobs_) {
        // A cancelled or drained job keeps weight ~0: its in-flight chunks
        // finish on slots it already holds, everything else flows to live
        // jobs. (shard_partition requires weights >= 0; all-zero weight
        // vectors fall back to equal shares, which is harmless here.)
        const bool live = !j.cancelled && j.remaining > 0;
        weights.push_back(live ? j.priority * static_cast<double>(j.remaining) : 0.0);
        order.push_back(&j);
    }
    const std::vector<std::int64_t> shares =
        dls::shard_partition(static_cast<std::int64_t>(capacity_), weights, n);
    for (int i = 0; i < n; ++i) {
        order[static_cast<std::size_t>(i)]->entitlement =
            static_cast<int>(shares[static_cast<std::size_t>(i)]);
    }
    // Progress floor: whenever the live jobs fit in the slots, each gets
    // at least one — largest-remainder can round a low-weight job to zero,
    // which would stall it until the heavy jobs drain (exactly the
    // starvation the re-apportionment exists to prevent). Slots are taken
    // from the most-entitled donors, ties toward later jobs.
    std::vector<Job*> live;
    for (Job* j : order) {
        if (!j->cancelled && j->remaining > 0) {
            live.push_back(j);
        }
    }
    if (!live.empty() && static_cast<int>(live.size()) <= capacity_) {
        for (Job* starved : live) {
            if (starved->entitlement > 0) {
                continue;
            }
            Job* donor = nullptr;
            for (Job* candidate : live) {
                if (candidate->entitlement > 1 &&
                    (donor == nullptr || candidate->entitlement >= donor->entitlement)) {
                    donor = candidate;
                }
            }
            if (donor != nullptr) {
                --donor->entitlement;
                starved->entitlement = 1;
            }
        }
    }
}

}  // namespace hdls::core
