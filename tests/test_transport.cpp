/// \file test_transport.cpp
/// The transport seam: HDLS_TRANSPORT selection and strict env errors,
/// the collective lane (exact key matching on both mailboxes; on shm
/// back-to-back collectives, chained large payloads, backpressure, the
/// 1 MB Resource cap), shm window atomics, the absolute 64-byte
/// segment-alignment guarantee on both transports, replay parity of the
/// hierarchical scheduler across transports, and the peer-failure
/// regressions: ranks parked in collectives and abort-polled epoch
/// acquisition observe a peer failure, epochs are released on local
/// unwind, and Window::free is abort-safe.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/hdls.hpp"
#include "minimpi/minimpi.hpp"
#include "minimpi/transport_shm.hpp"

namespace {

using hdls::core::Approach;
using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::core::LevelConfig;
using hdls::dls::InterBackend;
using hdls::dls::Technique;
using minimpi::Comm;
using minimpi::Context;
using minimpi::Error;
using minimpi::ErrorCode;
using minimpi::LockType;
using minimpi::Runtime;
using minimpi::Topology;
using minimpi::TopologyLevel;
using minimpi::TransportKind;
using minimpi::Window;

constexpr TransportKind kBothTransports[] = {TransportKind::Threads, TransportKind::Shm};

// ------------------------------------------------------------ selection ----

TEST(TransportEnvTest, EnvSelectsTheRunSubstrate) {
    ::setenv("HDLS_TRANSPORT", "shm", 1);
    Runtime::run(2, [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Shm); });
    // The environment overload resolves the knob before any rank starts,
    // so a bad value fails the run.
    ::setenv("HDLS_TRANSPORT", "tcp", 1);
    EXPECT_THROW(Runtime::run(2, [](Context&) {}), std::invalid_argument);
    ::unsetenv("HDLS_TRANSPORT");
    Runtime::run(2, [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Threads); });
}

TEST(TransportEnvTest, ExplicitOverloadBeatsTheEnvironment) {
    ::setenv("HDLS_TRANSPORT", "threads", 1);
    Runtime::run(2, TransportKind::Shm,
                 [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Shm); });
    ::unsetenv("HDLS_TRANSPORT");
}

TEST(TransportEnvTest, NamesRoundTrip) {
    EXPECT_STREQ(minimpi::transport_name(TransportKind::Threads), "threads");
    EXPECT_STREQ(minimpi::transport_name(TransportKind::Shm), "shm");
}

// ------------------------------------------------------------ shm smoke ----

TEST(MailboxTest, MatchTakesTheRequestedKeyOnBothTransports) {
    // A receive takes the envelope with the key it asks for, whatever is
    // queued ahead of it: here one sender's envelopes of two rounds of two
    // successive collectives arrive out of consumption order.
    const std::vector<std::pair<int, std::uint64_t>> pushed = {{1, 2}, {0, 2}, {0, 1}};
    const std::vector<std::pair<int, std::uint64_t>> taken = {{0, 1}, {0, 2}, {1, 2}};
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        const auto transport = minimpi::detail::make_transport(kind, 2);
        minimpi::detail::Mailbox& inbox = transport->mailbox(1);
        const std::atomic<bool> abort{false};
        for (std::size_t i = 0; i < pushed.size(); ++i) {
            minimpi::detail::Envelope e;
            e.key = {1, 0, pushed[i].first, pushed[i].second};
            e.payload.assign(1, static_cast<std::byte>(i));
            inbox.push(std::move(e), abort);
        }
        for (const auto& [phase, cseq] : taken) {
            const auto e = inbox.match({1, 0, phase, cseq}, abort);
            ASSERT_EQ(e.payload.size(), 1u);
            const auto i = std::to_integer<std::size_t>(e.payload[0]);
            EXPECT_EQ(pushed[i], std::make_pair(phase, cseq));
        }
    }
}

TEST(ShmTransportTest, BackToBackCollectivesMatchBySource) {
    // Envelopes from several senders and successive collectives interleave
    // in one mailbox; every receive must take the one from the rank it
    // waits for.
    Runtime::run(4, TransportKind::Shm, [](Context& ctx) {
        const Comm& w = ctx.world();
        for (int i = 0; i < 200; ++i) {
            const auto all = w.allgather(1000 * i + ctx.rank());
            ASSERT_EQ(all.size(), 4u);
            for (int r = 0; r < 4; ++r) {
                ASSERT_EQ(all[static_cast<std::size_t>(r)], 1000 * i + r) << "collective " << i;
            }
            if (i % 3 == 0) {
                w.barrier();
            }
        }
    });
}

TEST(ShmTransportTest, LargePayloadsChainContinuationSlots) {
    // Several slots worth of payload per rank, deliberately not a multiple
    // of the slot size; the broadcast step carries twice that.
    constexpr std::size_t kWords =
        (3 * minimpi::detail::kShmMaxPayload + 123) / sizeof(std::int64_t);
    Runtime::run(2, TransportKind::Shm, [](Context& ctx) {
        std::array<std::int64_t, kWords> mine{};
        std::iota(mine.begin(), mine.end(), std::int64_t{1} + ctx.rank());
        const auto all = ctx.world().allgather(mine);
        for (int r = 0; r < 2; ++r) {
            for (std::size_t i = 0; i < kWords; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(r)][i],
                          static_cast<std::int64_t>(i + 1) + r);
            }
        }
    });
}

TEST(ShmTransportTest, OversizedMessageThrowsResource) {
    constexpr std::size_t kCap =
        minimpi::detail::kShmMailboxSlots * minimpi::detail::kShmMaxPayload;
    using Huge = std::array<std::byte, kCap + 1>;
    try {
        Runtime::run(2, TransportKind::Shm, [](Context& ctx) {
            // Rank 1's gather contribution cannot fit the root's slot
            // table: its push must fail (rank 0 unwinds with Aborted).
            const auto mine = std::make_unique<Huge>();
            (void)ctx.world().allgather(*mine);
        });
        FAIL() << "expected ErrorCode::Resource";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::Resource);
    }
}

TEST(ShmTransportTest, BackpressureBlocksAndDrains) {
    // Far more in-flight envelopes than slots: the sender must block on the
    // full mailbox and resume as the receiver drains, without deadlock.
    // Collectives reach this only past kShmMailboxSlots + 1 senders to one
    // root, so the test drives one shm mailbox directly from two threads.
    minimpi::detail::ShmTransport transport(2);
    minimpi::detail::Mailbox& inbox = transport.mailbox(1);
    const std::atomic<bool> abort{false};
    const int kMessages = static_cast<int>(minimpi::detail::kShmMailboxSlots) * 4;
    std::atomic<int> pushed{0};
    std::thread sender([&] {
        for (int i = 0; i < kMessages; ++i) {
            minimpi::detail::Envelope e;
            e.key = {1, 0, 0, static_cast<std::uint64_t>(i)};
            e.payload.resize(sizeof(int));
            std::memcpy(e.payload.data(), &i, sizeof(int));
            inbox.push(std::move(e), abort);
            pushed.fetch_add(1, std::memory_order_release);
        }
    });
    // Let the sender hit the slot limit before draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LE(pushed.load(std::memory_order_acquire),
              static_cast<int>(minimpi::detail::kShmMailboxSlots));
    std::int64_t sum = 0;
    for (int i = 0; i < kMessages; ++i) {
        const auto e = inbox.match({1, 0, 0, static_cast<std::uint64_t>(i)}, abort);
        int got = -1;
        std::memcpy(&got, e.payload.data(), sizeof(int));
        EXPECT_EQ(got, i);
        sum += got;
    }
    sender.join();
    EXPECT_EQ(sum, static_cast<std::int64_t>(kMessages) * (kMessages - 1) / 2);
}

TEST(ShmTransportTest, CollectivesAndWindowAtomicsAgree) {
    Runtime::run(4, Topology::flat(2), TransportKind::Shm, [](Context& ctx) {
        const Comm& w = ctx.world();
        EXPECT_EQ(w.allgather(ctx.rank() + 1), (std::vector<int>{1, 2, 3, 4}));

        Window win =
            Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        constexpr int kUpdates = 500;
        for (int i = 0; i < kUpdates; ++i) {
            (void)win.fetch_add<std::int64_t>(1, 0, 0);
        }
        for (int i = 0; i < kUpdates; ++i) {
            (void)win.atomic_update<std::int64_t>(0, 0, [](std::int64_t v) { return v + 1; });
        }
        w.barrier();
        EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 4 * 2 * kUpdates);
        w.barrier();
        win.free();
    });
}

// ------------------------------------------------------------- alignment ----

TEST(WindowAlignmentTest, EverySegmentIs64ByteAlignedOnBothTransports) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        Runtime::run(4, kind, [](Context& ctx) {
            const Comm& w = ctx.world();
            // Deliberately odd per-rank sizes: alignment must come from the
            // window layout, not from lucky size rounding.
            Window win = Window::allocate_shared(
                w, static_cast<std::size_t>(ctx.rank()) * 17 + 1);
            for (int r = 0; r < w.size(); ++r) {
                const auto segment = win.shared_span<std::byte>(r);
                EXPECT_EQ(reinterpret_cast<std::uintptr_t>(segment.data()) % 64, 0u)
                    << "segment of rank " << r << " is not 64-byte aligned";
                EXPECT_EQ(segment.size(), static_cast<std::size_t>(r) * 17 + 1);
            }
            w.barrier();
            win.free();
        });
    }
}

// ----------------------------------------------------------- peer failure ----

/// Rank 1 fails while *keeping* an exclusive epoch open (the handle that
/// owns the epoch outlives the unwind, as when a handle is stored outside
/// the failing scope). Every other rank is contending for that epoch and
/// must unwind with ErrorCode::Aborted in bounded time while the primary
/// error surfaces.
void peer_failure_while_holding_epoch(TransportKind kind) {
    // Keeps rank 1's locked handle alive past its unwind; reset after the
    // run releases the epoch against still-valid storage.
    std::optional<Window> survivor;
    std::atomic<int> ready{0};
    std::atomic<bool> locked{false};
    std::atomic<int> aborted{0};
    try {
        Runtime::run(4, kind, [&](Context& ctx) {
            const Comm& w = ctx.world();
            Window win = Window::allocate_shared(w, 8);
            if (ctx.rank() == 1) {
                survivor = win;  // the copy starts with no epochs of its own
                survivor->lock(LockType::Exclusive, 0);
                // Fail only once every contender is out of the collective
                // allocation — the regression under test is the *epoch*
                // wait, not a collective interrupted mid-allocate.
                while (ready.load(std::memory_order_acquire) < 3) {
                    std::this_thread::yield();
                }
                locked.store(true, std::memory_order_release);
                throw std::runtime_error("boom");
            }
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (!locked.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            try {
                win.lock(LockType::Exclusive, 0);
                ADD_FAILURE() << "acquired an epoch a failed peer still holds";
                win.unlock(0);
            } catch (const Error& e) {
                EXPECT_EQ(e.code(), ErrorCode::Aborted);
                aborted.fetch_add(1);
                throw;
            }
        });
        FAIL() << "the primary exception must propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(aborted.load(), 3);
    survivor.reset();
}

TEST(PeerFailureTest, ContendedExclusiveEpochUnwindsWithAborted) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        peer_failure_while_holding_epoch(kind);
    }
}

/// Rank 2 fails while ranks 0 and 1 are parked in a collective it never
/// joins: rank 0 waits for its gather contribution, rank 1 for the
/// broadcast that follows. Both must unwind with ErrorCode::Aborted while
/// the primary error surfaces.
void peer_failure_during_collective(TransportKind kind, bool barrier) {
    std::atomic<int> aborted{0};
    try {
        Runtime::run(3, kind, [&](Context& ctx) {
            const Comm& w = ctx.world();
            if (ctx.rank() == 2) {
                // Give the others time to park in the collective.
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
                throw std::runtime_error("boom");
            }
            try {
                if (barrier) {
                    w.barrier();
                } else {
                    (void)w.allgather(ctx.rank());
                }
                ADD_FAILURE() << "a collective completed without a failed member";
            } catch (const Error& e) {
                EXPECT_EQ(e.code(), ErrorCode::Aborted);
                aborted.fetch_add(1);
                throw;
            }
        });
        FAIL() << "the primary exception must propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(aborted.load(), 2);
}

TEST(PeerFailureTest, RanksParkedInCollectivesObserveAbort) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        peer_failure_during_collective(kind, /*barrier=*/true);
        peer_failure_during_collective(kind, /*barrier=*/false);
    }
}

// --------------------------------------------------------- epoch hygiene ----

TEST(EpochOwnershipTest, LocalUnwindReleasesHeldEpochs) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        Runtime::run(2, kind, [](Context& ctx) {
            const Comm& w = ctx.world();
            Window win = Window::allocate_shared(w, 8);
            if (ctx.rank() == 0) {
                try {
                    Window scoped = win;
                    scoped.lock(LockType::Exclusive, 1);
                    throw std::runtime_error("local failure");
                } catch (const std::runtime_error&) {
                    // recovered locally; `scoped` released its epoch
                }
            }
            w.barrier();
            if (ctx.rank() == 1) {
                // Would hang before the fix: rank 0's dead handle kept the
                // exclusive epoch on this target forever.
                win.lock(LockType::Exclusive, 1);
                win.unlock(1);
            }
            w.barrier();
            win.free();
        });
    }
}

TEST(EpochOwnershipTest, CopiesDoNotInheritEpochsMovesDo) {
    Runtime::run(1, TransportKind::Threads, [](Context& ctx) {
        Window win = Window::allocate_shared(ctx.world(), 8);
        win.lock(LockType::Exclusive, 0);

        Window copy = win;
        EXPECT_THROW(copy.unlock(0), Error);  // the copy holds nothing

        Window moved = std::move(win);
        moved.unlock(0);  // the epoch travelled with the move

        moved.free();
    });
}

TEST(EpochOwnershipTest, FreeIsAbortSafe) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        std::atomic<int> ready{0};
        std::atomic<int> aborted{0};
        try {
            Runtime::run(4, kind, [&](Context& ctx) {
                const Comm& w = ctx.world();
                Window win = Window::allocate_shared(w, 8);
                w.barrier();
                if (ctx.rank() == 1) {
                    // Fail only once every survivor is out of the explicit
                    // barrier above — the behavior under test is free()'s
                    // closing barrier observing the abort.
                    while (ready.load(std::memory_order_acquire) < 3) {
                        std::this_thread::yield();
                    }
                    throw std::runtime_error("boom");  // never reaches free
                }
                ready.fetch_add(1, std::memory_order_acq_rel);
                try {
                    win.free();
                    ADD_FAILURE() << "free's closing barrier must observe the abort";
                } catch (const Error& e) {
                    EXPECT_EQ(e.code(), ErrorCode::Aborted);
                    EXPECT_FALSE(win.valid()) << "the handle must be dead after free";
                    aborted.fetch_add(1);
                    throw;
                }
            });
            FAIL() << "the primary exception must propagate";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom");
        }
        EXPECT_EQ(aborted.load(), 3);
    }
}

// ---------------------------------------------------------- replay parity ----

/// Executes the hierarchical loop and returns the sorted multiset of leaf
/// sub-chunks (mirrors test_hierarchy.cpp's helper, plus transport pinning).
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> executed_chunks(
    const ClusterShape& shape, HierConfig cfg, TransportKind kind, std::int64_t n) {
    cfg.transport = kind;
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    const auto report = hdls::parallel_for(shape, Approach::MpiMpi, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               const std::lock_guard<std::mutex> lock(mu);
                                               chunks.emplace_back(b, e);
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(report.transport, kind);
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(TransportParityTest, ChunkMultisetsMatchAcrossTransports) {
    // Centralized backends serialize chunk-size decisions through the step
    // counter, so the executed multiset is a pure function of the config —
    // the transport must not change it (replay parity).
    struct Case {
        ClusterShape shape;
        std::vector<TopologyLevel> tree;
        std::vector<LevelConfig> levels;
    };
    const std::vector<Case> cases = {
        {{4, 4}, {}, {}},  // classic two-level defaults (GSS+GSS)
        {{3, 2},
         {{"nodes", 3}, {"cores", 2}},
         {{Technique::TSS, std::nullopt}, {Technique::SS, std::nullopt}}},
        {{4, 2},
         {{"nodes", 4}, {"cores", 2}},
         {{Technique::WF, std::nullopt}, {Technique::GSS, std::nullopt}}},
        {{6, 2},
         {{"racks", 2}, {"nodes", 3}, {"cores", 2}},
         {{Technique::FAC2, std::nullopt},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}}},
    };
    for (const Case& c : cases) {
        for (const std::int64_t n : {std::int64_t{103}, std::int64_t{3000}}) {
            HierConfig cfg;
            cfg.topology = c.tree;
            cfg.levels = c.levels;
            SCOPED_TRACE("depth=" + std::to_string(std::max<std::size_t>(c.tree.size(), 2)) +
                         " n=" + std::to_string(n));
            EXPECT_EQ(executed_chunks(c.shape, cfg, TransportKind::Threads, n),
                      executed_chunks(c.shape, cfg, TransportKind::Shm, n));
        }
    }
}

TEST(TransportParityTest, ShardedBackendTilesExactlyOnShm) {
    // Sharded backends steal nondeterministically (no multiset parity);
    // the invariant on the shm substrate is exact tiling.
    HierConfig cfg;
    cfg.topology = {{"nodes", 4}, {"cores", 2}};
    cfg.levels = {{Technique::GSS, InterBackend::Sharded}, {Technique::SS, std::nullopt}};
    cfg.transport = TransportKind::Shm;
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    const auto report = hdls::parallel_for(ClusterShape{4, 2}, Approach::MpiMpi, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               for (std::int64_t i = b; i < e; ++i) {
                                                   hits[static_cast<std::size_t>(i)]
                                                       .fetch_add(1, std::memory_order_relaxed);
                                               }
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(report.transport, TransportKind::Shm);
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
}

TEST(TransportParityTest, MpiOpenMpRunsOnShm) {
    // The MPI+OpenMP baseline also goes through Runtime::run; it must run
    // on either substrate even though it ignores windows.
    HierConfig cfg;
    cfg.transport = TransportKind::Shm;
    const std::int64_t n = 500;
    std::atomic<std::int64_t> executed{0};
    const auto report = hdls::parallel_for(ClusterShape{2, 3}, Approach::MpiOpenMp, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               executed.fetch_add(e - b,
                                                                  std::memory_order_relaxed);
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(executed.load(), n);
    EXPECT_EQ(report.transport, TransportKind::Shm);
}

}  // namespace
