/// \file window.cpp
/// Window creation, attachment and passive-target lock management.

#include "minimpi/window.hpp"

#include <algorithm>

#include "minimpi/backoff.hpp"

namespace minimpi {

namespace {
constexpr std::size_t kSegmentAlign = 64;  // cache-line align each rank's segment

[[nodiscard]] std::size_t align_up(std::size_t v) noexcept {
    return (v + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

/// Acquires an epoch on `storage`, pacing retries with the Backoff ladder.
/// The runtime abort flag is polled between attempts, so a rank
/// contending for a lock a failed peer still holds throws Aborted in
/// bounded time instead of hanging. Every epoch counts one
/// hdls_window_locks_total; each failed attempt is a
/// hdls_window_lock_retries_total.
void acquire_polled(const detail::RuntimeState& state, detail::WindowStorage& storage,
                    int target_rank, LockType type) {
    hdls::metrics::rt().window_locks->inc();
    Backoff backoff;
    while (!storage.try_lock(target_rank, type)) {
        state.check_abort();
        hdls::metrics::rt().window_lock_retries->inc();
        backoff.pause();
    }
}
}  // namespace

Window Window::allocate_shared(const Comm& comm, std::size_t local_bytes) {
    if (!comm.valid()) {
        throw Error(ErrorCode::InvalidArgument, "minimpi: allocate_shared on invalid comm");
    }
    detail::RuntimeState* state = comm.state_;
    const int p = comm.size();

    // Everyone learns everyone's contribution and derives identical layout.
    const std::vector<std::uint64_t> contributions =
        comm.allgather(static_cast<std::uint64_t>(local_bytes));
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p));
    std::vector<std::size_t> sizes(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
        offsets[static_cast<std::size_t>(r)] = total;
        sizes[static_cast<std::size_t>(r)] = contributions[static_cast<std::size_t>(r)];
        total += align_up(contributions[static_cast<std::size_t>(r)]);
    }

    // Rank 0 asks the transport for storage (backing bytes + lock table),
    // registers the impl and broadcasts the id; the bcast's happens-before
    // edge guarantees peers find it.
    std::uint64_t win_id = 0;
    if (comm.rank() == 0) {
        win_id = state->next_window_id.fetch_add(1, std::memory_order_relaxed);
        auto storage =
            state->transport->allocate_window(std::max<std::size_t>(total, 1), p);
        auto impl = std::make_shared<detail::WindowImpl>(win_id, offsets, sizes,
                                                         std::move(storage));
        const std::lock_guard<std::mutex> lock(state->window_mutex);
        state->windows.emplace(win_id, std::move(impl));
    }
    comm.bcast_bytes(&win_id, sizeof(win_id));

    std::shared_ptr<detail::WindowImpl> impl;
    {
        const std::lock_guard<std::mutex> lock(state->window_mutex);
        const auto it = state->windows.find(win_id);
        if (it == state->windows.end()) {
            throw Error(ErrorCode::Internal, "minimpi: window id not registered");
        }
        impl = it->second;
    }
    return Window(std::move(impl), comm);
}

void Window::require_valid() const {
    if (!valid()) {
        throw Error(ErrorCode::WindowUsage, "minimpi: operation on an invalid window");
    }
}

void Window::check_target(int target_rank) const {
    if (target_rank < 0 || target_rank >= size()) {
        throw Error(ErrorCode::InvalidRank, "minimpi: window target rank out of range");
    }
}

void Window::release_held() noexcept {
    if (impl_) {
        for (const auto& [target, type] : held_) {
            impl_->storage().unlock(target, type);
        }
    }
    held_.clear();
}

void Window::lock(LockType type, int target_rank) const {
    require_valid();
    check_target(target_rank);
    comm_.state_->check_abort();
    if (held_.contains(target_rank)) {
        throw Error(ErrorCode::WindowUsage,
                    "minimpi: nested lock on the same window target (epochs may not overlap)");
    }
    acquire_polled(*comm_.state_, impl_->storage(), target_rank, type);
    held_.emplace(target_rank, type);
}

void Window::unlock(int target_rank) const {
    require_valid();
    check_target(target_rank);
    const auto it = held_.find(target_rank);
    if (it == held_.end()) {
        throw Error(ErrorCode::WindowUsage, "minimpi: unlock without a matching lock");
    }
    impl_->storage().unlock(target_rank, it->second);
    held_.erase(it);
}

void Window::sync() const {
    require_valid();
    std::atomic_thread_fence(std::memory_order_seq_cst);
}

void Window::free() {
    require_valid();
    if (!held_.empty()) {
        throw Error(ErrorCode::WindowUsage, "minimpi: freeing a window with open epochs");
    }
    const std::uint64_t id = impl_->id();
    detail::RuntimeState* state = comm_.state_;
    const int my_rank = comm_.rank();
    // Invalidate the handle before the closing barrier: whatever happens
    // to a peer mid-free, this handle must not be left half-freed.
    Comm comm = std::move(comm_);
    comm_ = Comm();
    impl_.reset();
    try {
        comm.barrier();  // all ranks must be done with the window
    } catch (...) {
        // A peer failed mid-free. Drop the registry entry anyway (erase is
        // idempotent, so every surviving rank may do this) — the registry
        // must not leak the backing store just because the run aborted.
        const std::lock_guard<std::mutex> lock(state->window_mutex);
        state->windows.erase(id);
        throw;
    }
    if (my_rank == 0) {
        const std::lock_guard<std::mutex> lock(state->window_mutex);
        state->windows.erase(id);
    }
}

}  // namespace minimpi
