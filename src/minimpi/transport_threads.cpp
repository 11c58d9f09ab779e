/// \file transport_threads.cpp

#include "minimpi/transport_threads.hpp"

#include <algorithm>
#include <chrono>

namespace minimpi::detail {

// ---------------------------------------------------------- ThreadMailbox --

void ThreadMailbox::push(Envelope e, const std::atomic<bool>& /*abort*/) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(e));
    }
    cv_.notify_all();
}

Envelope ThreadMailbox::match(const EnvelopeKey& key, const std::atomic<bool>& abort) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto it = std::find_if(queue_.begin(), queue_.end(),
                                     [&](const Envelope& e) { return e.key == key; });
        if (it != queue_.end()) {
            Envelope e = std::move(*it);
            queue_.erase(it);
            return e;
        }
        if (abort.load(std::memory_order_acquire)) {
            throw Error(ErrorCode::Aborted, "minimpi: runtime aborting (peer rank failed)");
        }
        cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
}

void ThreadMailbox::interrupt() { cv_.notify_all(); }

// ---------------------------------------------------- ThreadWindowStorage --

namespace {
constexpr std::size_t kSegmentAlign = 64;
}  // namespace

ThreadWindowStorage::ThreadWindowStorage(std::size_t total_bytes, int ranks)
    : buffer_((std::max<std::size_t>(total_bytes, 1) + sizeof(std::uint64_t) - 1) /
                      sizeof(std::uint64_t) +
                  kSegmentAlign / sizeof(std::uint64_t),
              0),
      locks_(std::make_unique<EpochWord[]>(static_cast<std::size_t>(ranks))) {
    const auto addr = reinterpret_cast<std::uintptr_t>(buffer_.data());
    const std::uintptr_t aligned = (addr + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
    base_ = reinterpret_cast<std::byte*>(aligned);
}

bool ThreadWindowStorage::try_lock(int rank, LockType type) noexcept {
    return epoch_try_lock(locks_[static_cast<std::size_t>(rank)].word, type);
}

void ThreadWindowStorage::unlock(int rank, LockType type) noexcept {
    epoch_unlock(locks_[static_cast<std::size_t>(rank)].word, type);
}

// -------------------------------------------------------- ThreadTransport --

ThreadTransport::ThreadTransport(int world_size)
    : live_(std::make_unique<LiveWord[]>(static_cast<std::size_t>(world_size))) {
    mailboxes_.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        mailboxes_.push_back(std::make_unique<ThreadMailbox>());
    }
}

std::unique_ptr<WindowStorage> ThreadTransport::allocate_window(std::size_t total_bytes,
                                                                int ranks) {
    return std::make_unique<ThreadWindowStorage>(total_bytes, ranks);
}

void ThreadTransport::signal_abort() noexcept {
    for (auto& mb : mailboxes_) {
        mb->interrupt();
    }
}

}  // namespace minimpi::detail
