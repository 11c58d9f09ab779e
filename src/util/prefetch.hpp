#pragma once
/// \file prefetch.hpp
/// Software-prefetch helpers for intra-chunk latency hiding.
///
/// Hides *memory* latency inside a chunk by issuing a prefetch for the
/// data a loop will touch a fixed distance ahead of where it is computing
/// (arbor's util/prefetch.hpp pairs the same idea with a deferred-work
/// ring). Two tools:
///
///  * prefetch_read / prefetch_write — thin, always-safe wrappers over
///    __builtin_prefetch. Prefetching never faults, so callers may form
///    addresses past the end of an array without touching them.
///  * PrefetchRing — a small fixed-capacity ring that pairs each prefetch
///    with the work that will consume the prefetched line. push() issues
///    the prefetch and defers the payload; once the ring is full, every
///    push pops (executes) the oldest entry, by which time its line has
///    had `Depth` iterations of other work to arrive in cache.
///
/// When does this help? Gather-style loops whose next addresses are known
/// early but whose stride defeats the hardware prefetcher (the PSIA
/// point-cloud gather at 48-byte stride with a filter between loads), and
/// linked/indexed structures. Contiguous unit-stride streams gain little —
/// the hardware prefetcher already runs ahead of those.

#include <array>
#include <cstddef>
#include <utility>

namespace hdls::util {

/// Locality hints mirroring __builtin_prefetch's third argument.
enum class PrefetchLocality : int {
    None = 0,  ///< streamed once, evict early (NTA)
    Low = 1,
    Moderate = 2,
    High = 3,  ///< keep in all cache levels
};

/// Prefetches the line containing `p` for a future read. `p` may point
/// anywhere (including past the end of an allocation): the address is
/// never dereferenced.
template <typename T>
inline void prefetch_read(const T* p,
                          PrefetchLocality locality = PrefetchLocality::High) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    switch (locality) {
        case PrefetchLocality::None:
            __builtin_prefetch(static_cast<const void*>(p), 0, 0);
            break;
        case PrefetchLocality::Low:
            __builtin_prefetch(static_cast<const void*>(p), 0, 1);
            break;
        case PrefetchLocality::Moderate:
            __builtin_prefetch(static_cast<const void*>(p), 0, 2);
            break;
        case PrefetchLocality::High:
            __builtin_prefetch(static_cast<const void*>(p), 0, 3);
            break;
    }
#else
    (void)p;
    (void)locality;
#endif
}

/// Prefetches the line containing `p` for a future write (read-for-
/// ownership on coherent systems).
template <typename T>
inline void prefetch_write(T* p,
                           PrefetchLocality locality = PrefetchLocality::High) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(static_cast<const void*>(p), 1, static_cast<int>(locality));
#else
    (void)p;
    (void)locality;
#endif
}

/// Deferred-work ring of depth `Depth`: each push(ptr, payload) prefetches
/// `ptr` and queues `payload`; the payload is handed to the consumer only
/// after `Depth - 1` further pushes (or at drain()), by which time the
/// prefetched line should be resident. `Payload` is typically the index or
/// pointer the consumer needs to process the element.
///
/// Usage:
///     PrefetchRing<8, std::size_t> ring;
///     for (i ...) ring.push(&cloud[i], i, consume);
///     ring.drain(consume);
template <std::size_t Depth, typename Payload>
class PrefetchRing {
    static_assert(Depth >= 1, "PrefetchRing needs a positive depth");

public:
    /// Issues the prefetch for `addr`, defers `payload`; runs the oldest
    /// deferred payload through `consume` once the ring is full.
    template <typename T, typename Consume>
    void push(const T* addr, Payload payload, Consume&& consume) {
        prefetch_read(addr);
        if (size_ == Depth) {
            consume(std::move(slots_[head_]));
        } else {
            ++size_;
        }
        slots_[head_] = std::move(payload);
        head_ = (head_ + 1) % Depth;
    }

    /// Runs every still-deferred payload, oldest first.
    template <typename Consume>
    void drain(Consume&& consume) {
        std::size_t at = (head_ + Depth - size_) % Depth;
        while (size_ > 0) {
            consume(std::move(slots_[at]));
            at = (at + 1) % Depth;
            --size_;
        }
    }

    [[nodiscard]] std::size_t pending() const noexcept { return size_; }

private:
    std::array<Payload, Depth> slots_{};
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace hdls::util
