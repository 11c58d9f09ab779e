/// \file transport_shm.cpp
/// The POSIX shared-memory transport: segment lifecycle, lock-word
/// mailboxes and window lock words. See transport_shm.hpp for the layout.

#include "minimpi/transport_shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <optional>
#include <string>

#include "minimpi/backoff.hpp"
#include "minimpi/lock_word.hpp"

namespace minimpi::detail {

namespace {

constexpr std::size_t kShmAlign = 64;

[[nodiscard]] constexpr std::size_t align_up64(std::size_t v) noexcept {
    return (v + kShmAlign - 1) / kShmAlign * kShmAlign;
}

/// Exclusive spin lock over a lock word in the segment (Backoff ladder, so
/// contended mailboxes degrade exactly like contended window epochs).
class SpinLockGuard {
public:
    explicit SpinLockGuard(std::atomic<std::uint32_t>& word) : word_(word) {
        Backoff backoff;
        while (word_.exchange(1, std::memory_order_acquire) != 0) {
            backoff.pause();
        }
    }
    ~SpinLockGuard() { word_.store(0, std::memory_order_release); }
    SpinLockGuard(const SpinLockGuard&) = delete;
    SpinLockGuard& operator=(const SpinLockGuard&) = delete;

private:
    std::atomic<std::uint32_t>& word_;
};

[[noreturn]] void throw_aborted() {
    throw Error(ErrorCode::Aborted, "minimpi: runtime aborting (peer rank failed)");
}

}  // namespace

// ----------------------------------------------------------- shared layout --

/// Segment header. `arena_next` is the bump pointer of the window arena,
/// as an absolute byte offset into the segment; `abort_word` mirrors the
/// runtime abort flag inside the segment so a peer *process* mapping it
/// would observe the failure too.
struct ShmControl {
    std::atomic<std::uint32_t> abort_word{0};
    std::atomic<std::uint64_t> arena_next{0};
    std::uint64_t arena_end = 0;
};

/// One rank's liveness line (see Transport::beat): heartbeat counter +
/// sticky dead flag, one cache line per rank so peers polling different
/// ranks never contend.
struct alignas(64) ShmLiveLine {
    std::atomic<std::uint64_t> beats{0};
    std::atomic<std::uint32_t> dead{0};
};

namespace {
[[nodiscard]] ShmLiveLine& live_line(std::byte* base, int rank) noexcept {
    return *reinterpret_cast<ShmLiveLine*>(base +
                                           static_cast<std::size_t>(rank) * sizeof(ShmLiveLine));
}
}  // namespace

/// One message slot. Head slots are linked into either the mailbox's
/// order list (head/tail, via `next`) or the free list; a payload larger
/// than one slot continues into chained continuation slots (via `cont`),
/// which never appear in the order list themselves.
struct ShmSlot {
    std::uint64_t comm_id;
    std::uint64_t cseq;
    std::int32_t src;
    std::int32_t phase;
    std::uint32_t size;  ///< total payload bytes of the whole chain
    std::int32_t next;
    std::int32_t cont;
    alignas(8) std::byte payload[kShmMaxPayload];
};

/// Per-rank mailbox region. Slot pages are touched lazily: `fresh` hands
/// out never-used slots, recycled ones come off the free list — a run
/// that never queues more than k messages at once touches only k slots.
struct ShmMailboxShared {
    std::atomic<std::uint32_t> lock{0};
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int32_t free_head = -1;
    std::int32_t fresh = 0;
    ShmSlot slots[kShmMailboxSlots];
};

namespace {

[[nodiscard]] std::int32_t alloc_slot(ShmMailboxShared& sh) noexcept {
    if (sh.free_head >= 0) {
        const std::int32_t idx = sh.free_head;
        sh.free_head = sh.slots[idx].next;
        return idx;
    }
    if (sh.fresh < static_cast<std::int32_t>(kShmMailboxSlots)) {
        return sh.fresh++;
    }
    return -1;
}

[[nodiscard]] bool matches_slot(const EnvelopeKey& key, const ShmSlot& s) noexcept {
    return s.comm_id == key.comm_id && s.cseq == key.cseq && s.src == key.src &&
           s.phase == key.phase;
}

/// Unlinks and returns the envelope with `key`, if one is queued.
[[nodiscard]] std::optional<Envelope> try_take(ShmMailboxShared& sh, const EnvelopeKey& key) {
    const SpinLockGuard guard(sh.lock);
    std::int32_t prev = -1;
    for (std::int32_t idx = sh.head; idx >= 0;
         idx = sh.slots[static_cast<std::size_t>(idx)].next) {
        ShmSlot& s = sh.slots[static_cast<std::size_t>(idx)];
        if (matches_slot(key, s)) {
            Envelope e;
            e.key = key;
            e.payload.resize(s.size);
            std::size_t copied = 0;
            for (std::int32_t c = idx; c >= 0; c = sh.slots[static_cast<std::size_t>(c)].cont) {
                const std::size_t chunk = std::min(kShmMaxPayload, e.payload.size() - copied);
                if (chunk > 0) {
                    std::memcpy(e.payload.data() + copied,
                                sh.slots[static_cast<std::size_t>(c)].payload, chunk);
                }
                copied += chunk;
            }
            if (prev >= 0) {
                sh.slots[static_cast<std::size_t>(prev)].next = s.next;
            } else {
                sh.head = s.next;
            }
            if (sh.tail == idx) {
                sh.tail = prev;
            }
            std::int32_t c = idx;
            while (c >= 0) {
                const std::int32_t cont = sh.slots[static_cast<std::size_t>(c)].cont;
                sh.slots[static_cast<std::size_t>(c)].next = sh.free_head;
                sh.free_head = c;
                c = cont;
            }
            return e;
        }
        prev = idx;
    }
    return std::nullopt;
}

}  // namespace

// ------------------------------------------------------------- ShmSegment --

ShmSegment::ShmSegment(std::size_t bytes) : size_(bytes) {
    static std::atomic<std::uint64_t> counter{0};
    for (;;) {
        const std::string name = "/hdls-" + std::to_string(::getpid()) + "-" +
                                 std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
        const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        if (fd < 0) {
            if (errno == EEXIST) {
                continue;  // stale name from a crashed sibling; take the next
            }
            throw Error(ErrorCode::Resource,
                        std::string("minimpi: shm_open failed: ") + std::strerror(errno));
        }
        if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
            const int err = errno;
            ::close(fd);
            ::shm_unlink(name.c_str());
            throw Error(ErrorCode::Resource,
                        std::string("minimpi: ftruncate of the shm segment failed: ") +
                            std::strerror(err));
        }
        void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        const int err = errno;
        // Unlink immediately: the mapping keeps the segment alive, nothing
        // is left in /dev/shm even if this process dies uncleanly.
        ::shm_unlink(name.c_str());
        ::close(fd);
        if (p == MAP_FAILED) {
            throw Error(ErrorCode::Resource,
                        std::string("minimpi: mmap of the shm segment failed: ") +
                            std::strerror(err));
        }
        data_ = static_cast<std::byte*>(p);
        return;
    }
}

ShmSegment::~ShmSegment() {
    if (data_ != nullptr) {
        ::munmap(data_, size_);
    }
}

// ------------------------------------------------------------- ShmMailbox --

void ShmMailbox::push(Envelope e, const std::atomic<bool>& abort) {
    const std::size_t needed =
        e.payload.empty() ? 1 : (e.payload.size() + kShmMaxPayload - 1) / kShmMaxPayload;
    if (needed > kShmMailboxSlots) {
        throw Error(ErrorCode::Resource,
                    "minimpi: message of " + std::to_string(e.payload.size()) +
                        " bytes exceeds the shm mailbox capacity (" +
                        std::to_string(kShmMailboxSlots * kShmMaxPayload) + " bytes)");
    }
    Backoff backoff;
    for (;;) {
        {
            SpinLockGuard guard(sh_->lock);
            // Allocate the whole chain or nothing (partial chains go back
            // to the free list so a big message can't wedge the mailbox).
            std::int32_t first = -1;
            std::int32_t prev = -1;
            std::size_t got = 0;
            for (; got < needed; ++got) {
                const std::int32_t idx = alloc_slot(*sh_);
                if (idx < 0) {
                    break;
                }
                sh_->slots[static_cast<std::size_t>(idx)].cont = -1;
                if (prev >= 0) {
                    sh_->slots[static_cast<std::size_t>(prev)].cont = idx;
                } else {
                    first = idx;
                }
                prev = idx;
            }
            if (got == needed) {
                ShmSlot& s = sh_->slots[static_cast<std::size_t>(first)];
                s.comm_id = e.key.comm_id;
                s.cseq = e.key.cseq;
                s.src = e.key.src;
                s.phase = e.key.phase;
                s.size = static_cast<std::uint32_t>(e.payload.size());
                s.next = -1;
                std::size_t copied = 0;
                for (std::int32_t idx = first; idx >= 0;
                     idx = sh_->slots[static_cast<std::size_t>(idx)].cont) {
                    const std::size_t chunk =
                        std::min(kShmMaxPayload, e.payload.size() - copied);
                    if (chunk > 0) {
                        std::memcpy(sh_->slots[static_cast<std::size_t>(idx)].payload,
                                    e.payload.data() + copied, chunk);
                    }
                    copied += chunk;
                }
                if (sh_->tail >= 0) {
                    sh_->slots[static_cast<std::size_t>(sh_->tail)].next = first;
                } else {
                    sh_->head = first;
                }
                sh_->tail = first;
                return;
            }
            while (first >= 0) {
                const std::int32_t cont = sh_->slots[static_cast<std::size_t>(first)].cont;
                sh_->slots[static_cast<std::size_t>(first)].next = sh_->free_head;
                sh_->free_head = first;
                first = cont;
            }
        }
        // Backpressure: not enough free slots. Wait for the receiver —
        // unless the team is aborting, in which case it may never drain.
        if (abort.load(std::memory_order_acquire)) {
            throw_aborted();
        }
        backoff.pause();
    }
}

Envelope ShmMailbox::match(const EnvelopeKey& key, const std::atomic<bool>& abort) {
    Backoff backoff;
    for (;;) {
        if (auto e = try_take(*sh_, key)) {
            return std::move(*e);
        }
        if (abort.load(std::memory_order_acquire)) {
            throw_aborted();
        }
        backoff.pause();
    }
}

void ShmMailbox::interrupt() {}

// ------------------------------------------------------- ShmWindowStorage --

namespace {

[[nodiscard]] std::atomic<std::uint32_t>& lock_word(std::byte* words, int rank) noexcept {
    return *reinterpret_cast<std::atomic<std::uint32_t>*>(words +
                                                          static_cast<std::size_t>(rank) * 64);
}

}  // namespace

ShmWindowStorage::ShmWindowStorage(std::shared_ptr<ShmSegment> segment, std::size_t offset,
                                   int ranks)
    : segment_(std::move(segment)),
      words_(segment_->data() + offset),
      data_(words_ + static_cast<std::size_t>(ranks) * 64) {
    for (int r = 0; r < ranks; ++r) {
        new (words_ + static_cast<std::size_t>(r) * 64) std::atomic<std::uint32_t>(0);
    }
}

bool ShmWindowStorage::try_lock(int rank, LockType type) noexcept {
    return epoch_try_lock(lock_word(words_, rank), type);
}

void ShmWindowStorage::unlock(int rank, LockType type) noexcept {
    epoch_unlock(lock_word(words_, rank), type);
}

// ------------------------------------------------------------ ShmTransport --

ShmTransport::ShmTransport(int world_size) {
    const std::size_t control_region = align_up64(sizeof(ShmControl));
    const std::size_t live_region = static_cast<std::size_t>(world_size) * sizeof(ShmLiveLine);
    const std::size_t mailbox_region = align_up64(sizeof(ShmMailboxShared));
    const std::size_t mailbox_base = control_region + live_region;
    const std::size_t arena_base =
        mailbox_base + static_cast<std::size_t>(world_size) * mailbox_region;
    segment_ = std::make_shared<ShmSegment>(arena_base + kShmWindowArenaBytes);

    control_ = new (segment_->data()) ShmControl{};
    control_->arena_next.store(arena_base, std::memory_order_relaxed);
    control_->arena_end = arena_base + kShmWindowArenaBytes;

    live_ = segment_->data() + control_region;
    for (int r = 0; r < world_size; ++r) {
        new (live_ + static_cast<std::size_t>(r) * sizeof(ShmLiveLine)) ShmLiveLine{};
    }

    mailboxes_.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        auto* shared = new (segment_->data() + mailbox_base +
                            static_cast<std::size_t>(r) * mailbox_region) ShmMailboxShared;
        mailboxes_.push_back(std::make_unique<ShmMailbox>(shared));
    }
}

void ShmTransport::beat(int world_rank) noexcept {
    live_line(live_, world_rank).beats.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ShmTransport::heartbeat(int world_rank) noexcept {
    return live_line(live_, world_rank).beats.load(std::memory_order_acquire);
}

void ShmTransport::mark_dead(int world_rank) noexcept {
    live_line(live_, world_rank).dead.store(1, std::memory_order_release);
}

bool ShmTransport::is_dead(int world_rank) noexcept {
    return live_line(live_, world_rank).dead.load(std::memory_order_acquire) != 0;
}

std::unique_ptr<WindowStorage> ShmTransport::allocate_window(std::size_t total_bytes,
                                                             int ranks) {
    const std::size_t lock_bytes = static_cast<std::size_t>(ranks) * 64;
    const std::size_t need =
        align_up64(lock_bytes + std::max<std::size_t>(total_bytes, 1));
    const std::uint64_t off =
        control_->arena_next.fetch_add(need, std::memory_order_relaxed);
    if (off + need > control_->arena_end) {
        throw Error(ErrorCode::Resource,
                    "minimpi: shm window arena exhausted (" + std::to_string(need) +
                        " bytes requested past the " +
                        std::to_string(kShmWindowArenaBytes) + "-byte arena)");
    }
    return std::make_unique<ShmWindowStorage>(segment_, off, ranks);
}

void ShmTransport::signal_abort() noexcept {
    if (control_ != nullptr) {
        control_->abort_word.store(1, std::memory_order_release);
    }
}

}  // namespace minimpi::detail
