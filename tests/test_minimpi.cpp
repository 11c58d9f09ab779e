/// \file test_minimpi.cpp
/// Tests for the thread-backed runtime of the MPI-3 subset the scheduler
/// calls: collectives (barrier, allgather) against serial references,
/// communicator management and RMA windows (shared allocation, passive-
/// target locks, fetch-add and compare-and-swap under contention).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace {

using namespace minimpi;

/// Runs `fn` over `world` ranks on a single simulated node.
void run(int world, const std::function<void(Context&)>& fn) { Runtime::run(world, fn); }

/// Runs `fn` over `nodes * rpn` ranks with `rpn` ranks per simulated node.
void run_cluster(int nodes, int rpn, const std::function<void(Context&)>& fn) {
    Runtime::run(nodes * rpn, Topology::flat(rpn), fn);
}

// ------------------------------------------------------------------ runtime

TEST(RuntimeTest, EveryRankRunsExactlyOnce) {
    std::atomic<int> count{0};
    std::array<std::atomic<int>, 8> per_rank{};
    run(8, [&](Context& ctx) {
        count.fetch_add(1);
        per_rank[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
        EXPECT_EQ(ctx.size(), 8);
    });
    EXPECT_EQ(count.load(), 8);
    for (const auto& c : per_rank) {
        EXPECT_EQ(c.load(), 1);
    }
}

TEST(RuntimeTest, TopologyAssignsNodesBlockwise) {
    run_cluster(3, 4, [&](Context& ctx) {
        EXPECT_EQ(ctx.node(), ctx.rank() / 4);
        EXPECT_EQ(ctx.nodes(), 3);
        EXPECT_EQ(ctx.topology().ranks_per_node, 4);
    });
}

TEST(RuntimeTest, InvalidLaunchArgsThrow) {
    EXPECT_THROW(run(0, [](Context&) {}), Error);
    EXPECT_THROW(Runtime::run(2, Topology::flat(0), [](Context&) {}), std::invalid_argument);
    EXPECT_THROW(Runtime::run(2, std::function<void(Context&)>{}), Error);
}

TEST(RuntimeTest, ExceptionInOneRankAbortsTheTeam) {
    // Rank 1 throws while rank 0 blocks in a barrier rank 1 never joins;
    // the runtime must unwind both and rethrow rank 1's primary exception,
    // not the Aborted echo.
    try {
        run(2, [](Context& ctx) {
            if (ctx.rank() == 1) {
                throw std::logic_error("rank 1 exploded");
            }
            ctx.world().barrier();  // never satisfied
        });
        FAIL() << "expected an exception";
    } catch (const std::logic_error& e) {
        EXPECT_STREQ(e.what(), "rank 1 exploded");
    }
}

TEST(RuntimeTest, SingleRankWorldWorks) {
    run(1, [](Context& ctx) {
        EXPECT_EQ(ctx.rank(), 0);
        ctx.world().barrier();
        EXPECT_EQ(ctx.world().allgather(41), std::vector<int>{41});
    });
}

// -------------------------------------------------------------- collectives

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierCompletes) {
    run(GetParam(), [](Context& ctx) {
        for (int i = 0; i < 5; ++i) {
            ctx.world().barrier();
        }
    });
}

TEST_P(CollectiveSizes, AllgatherCarriesMultiWordValues) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        std::array<int, 257> mine{};
        mine.fill(ctx.rank());
        const auto all = ctx.world().allgather(mine);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            for (const int v : all[static_cast<std::size_t>(r)]) {
                ASSERT_EQ(v, r);
            }
        }
    });
}

TEST_P(CollectiveSizes, AllgatherGivesEveryoneEverything) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const auto all = ctx.world().allgather(100 + ctx.rank());
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 + r);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(1, 2, 3, 5, 8, 16, 17));

TEST(CollectiveTest, ConcurrentCollectivesOnDistinctCommsDoNotCross) {
    // Split world into two halves; each half runs its own allgathers while
    // the other is mid-flight. Communicator ids and sequence numbers must
    // keep them apart.
    run(8, [](Context& ctx) {
        const Comm& w = ctx.world();
        const Comm half = w.split(ctx.rank() % 2, ctx.rank());
        for (int i = 0; i < 20; ++i) {
            const auto all = half.allgather(100 * i + ctx.rank());
            ASSERT_EQ(all.size(), 4u);
            for (int r = 0; r < 4; ++r) {
                EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 * i + 2 * r + ctx.rank() % 2);
            }
        }
        w.barrier();
    });
}

// ------------------------------------------------------- comm management

TEST(CommTest, SplitGroupsByColorOrderedByKey) {
    run(6, [](Context& ctx) {
        const Comm& w = ctx.world();
        // colors: even ranks -> 0, odd -> 1; key reverses the order.
        const Comm sub = w.split(ctx.rank() % 2, -ctx.rank());
        EXPECT_TRUE(sub.valid());
        EXPECT_EQ(sub.size(), 3);
        // Reversed key: highest old rank becomes rank 0 of the child.
        const int expected_rank = (5 - ctx.rank()) / 2;
        EXPECT_EQ(sub.rank(), expected_rank);
        // The new comm must be functional and ordered by key.
        const auto members = sub.allgather(ctx.rank());
        const std::vector<int> expected =
            ctx.rank() % 2 == 0 ? std::vector<int>{4, 2, 0} : std::vector<int>{5, 3, 1};
        EXPECT_EQ(members, expected);
    });
}

TEST(CommTest, SplitWithNegativeColorYieldsNullComm) {
    run(4, [](Context& ctx) {
        const Comm sub = ctx.world().split(ctx.rank() == 0 ? -1 : 7, 0);
        if (ctx.rank() == 0) {
            EXPECT_FALSE(sub.valid());
        } else {
            EXPECT_TRUE(sub.valid());
            EXPECT_EQ(sub.size(), 3);
        }
    });
}

TEST(CommTest, SplitTypeSharedGroupsByNode) {
    run_cluster(3, 4, [](Context& ctx) {
        const Comm node = ctx.world().split_type(SplitType::Shared, ctx.world().rank());
        EXPECT_EQ(node.size(), 4);
        EXPECT_EQ(node.rank(), ctx.rank() % 4);
        // All members must really share my node.
        for (int r = 0; r < node.size(); ++r) {
            EXPECT_EQ(node.node_of(r), ctx.node());
        }
        const auto members = node.allgather(ctx.rank());
        const int first = ctx.node() * 4;
        EXPECT_EQ(members, (std::vector<int>{first, first + 1, first + 2, first + 3}));
    });
}

TEST(CommTest, WorldRankMapping) {
    run(4, [](Context& ctx) {
        const Comm sub = ctx.world().split(ctx.rank() / 2, ctx.rank());
        EXPECT_EQ(sub.world_rank_of(sub.rank()), ctx.rank());
        EXPECT_THROW((void)sub.world_rank_of(99), Error);
    });
}

TEST(CommTest, OperationsOnInvalidCommThrow) {
    const Comm invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(invalid.barrier(), Error);
    EXPECT_THROW((void)invalid.allgather(0), Error);
    EXPECT_THROW((void)invalid.split(0, 0), Error);
}

// ------------------------------------------------------------------ windows

TEST(WindowTest, AllocateSharedLayoutAndQuery) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        // Heterogeneous segment sizes, like MPI allows.
        const std::size_t mine = sizeof(std::int64_t) * static_cast<std::size_t>(ctx.rank() + 1);
        Window win = Window::allocate_shared(w, mine);
        EXPECT_EQ(win.size(), 4);
        EXPECT_EQ(win.shared_span<std::byte>(ctx.rank()).size(), mine);
        for (int r = 0; r < 4; ++r) {
            const auto segment = win.shared_span<std::byte>(r);
            EXPECT_NE(segment.data(), nullptr);
            EXPECT_EQ(segment.size(), sizeof(std::int64_t) * static_cast<std::size_t>(r + 1));
        }
        win.free();
        EXPECT_FALSE(win.valid());
    });
}

TEST(WindowTest, DirectStoresVisibleAfterBarrier) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        auto mine = win.shared_span<std::int64_t>(ctx.rank());
        mine[0] = 100 + ctx.rank();
        win.sync();
        w.barrier();
        for (int r = 0; r < 4; ++r) {
            EXPECT_EQ(win.shared_span<std::int64_t>(r)[0], 100 + r);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, FetchAddIsAtomicUnderContention) {
    constexpr int kRanks = 8;
    constexpr int kIncrements = 2000;
    run(kRanks, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        std::int64_t sum_of_previous = 0;
        for (int i = 0; i < kIncrements; ++i) {
            sum_of_previous += win.fetch_add<std::int64_t>(1, 0, 0);
        }
        w.barrier();
        if (ctx.rank() == 0) {
            // Every increment observed a unique previous value: the final
            // count is exact iff no update was lost.
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0),
                      static_cast<std::int64_t>(kRanks) * kIncrements);
        }
        w.barrier();
        win.free();
        (void)sum_of_previous;
    });
}

TEST(WindowTest, AtomicReadWriteAndFetchAdd) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? 2 * sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            auto s = win.shared_span<std::int64_t>(0);
            s[0] = 10;
            s[1] = 10;
        }
        w.barrier();
        if (ctx.rank() == 1) {
            EXPECT_EQ(win.fetch_add<std::int64_t>(5, 0, 0), 10);
            EXPECT_EQ(win.fetch_add<std::int64_t>(-2, 0, 0), 15);
            win.atomic_write<std::int64_t>(77, 0, 1);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 13);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 1), 77);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, CompareAndSwap) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 5;
        }
        w.barrier();
        if (ctx.rank() == 1) {
            // Successful swap returns the old value and stores the new one.
            EXPECT_EQ(win.compare_and_swap<std::int64_t>(5, 9, 0, 0), 5);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 9);
            // Failed swap leaves the value alone.
            EXPECT_EQ(win.compare_and_swap<std::int64_t>(5, 1, 0, 0), 9);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 9);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, ExclusiveLockProvidesMutualExclusion) {
    // Classic read-modify-write race: without the lock the final counter
    // would (with overwhelming probability) be smaller than the target.
    constexpr int kRanks = 8;
    constexpr int kRounds = 500;
    run(kRanks, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        auto cell = win.shared_span<std::int64_t>(0);
        if (ctx.rank() == 0) {
            cell[0] = 0;
        }
        w.barrier();
        for (int i = 0; i < kRounds; ++i) {
            win.lock(LockType::Exclusive, 0);
            const std::int64_t v = cell[0];  // non-atomic RMW under the lock
            cell[0] = v + 1;
            win.unlock(0);
        }
        w.barrier();
        if (ctx.rank() == 0) {
            EXPECT_EQ(cell[0], static_cast<std::int64_t>(kRanks) * kRounds);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, LockDisciplineViolationsThrow) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        EXPECT_THROW(win.unlock(0), Error);  // unlock without lock
        win.lock(LockType::Shared, 0);
        EXPECT_THROW(win.lock(LockType::Shared, 0), Error);  // overlapping epoch
        win.unlock(0);
        EXPECT_THROW(win.lock(LockType::Exclusive, 9), Error);  // bad target
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, OutOfRangeAndMisalignedAccessThrow) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, 3 * sizeof(std::int64_t));
        EXPECT_THROW((void)win.atomic_read<std::int64_t>(0, 3), Error);   // past the end
        EXPECT_THROW((void)win.atomic_read<std::int64_t>(0, 100), Error);
        EXPECT_THROW((void)win.fetch_add<std::int64_t>(1, 2, 0), Error);  // bad target
        EXPECT_THROW((void)win.shared_span<std::int64_t>(-1), Error);
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, FreeWithOpenEpochThrows) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        win.lock(LockType::Shared, 0);
        EXPECT_THROW(win.free(), Error);
        win.unlock(0);
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, WindowsOnSubCommunicators) {
    // The paper's layout: one global window on world, one shared window per
    // node communicator.
    run_cluster(2, 4, [](Context& ctx) {
        const Comm& world = ctx.world();
        const Comm node = world.split_type(SplitType::Shared, world.rank());
        Window global = Window::allocate_shared(world, world.rank() == 0 ? 16 : 0);
        Window local = Window::allocate_shared(node, node.rank() == 0 ? 16 : 0);
        // Node-local counter increments stay within the node.
        (void)local.fetch_add<std::int64_t>(1, 0, 0);
        world.barrier();
        if (node.rank() == 0) {
            EXPECT_EQ(local.atomic_read<std::int64_t>(0, 0), 4);
        }
        // Global counter sees everyone.
        (void)global.fetch_add<std::int64_t>(1, 0, 0);
        world.barrier();
        if (world.rank() == 0) {
            EXPECT_EQ(global.atomic_read<std::int64_t>(0, 0), 8);
        }
        world.barrier();
        local.free();
        global.free();
    });
}

// ----------------------------------------------------------- stress tests

TEST(StressTest, StepCounterProtocolMatchesSsSemantics) {
    // The distributed chunk-calculation idiom end-to-end on minimpi: every
    // rank fetch-adds the step counter until N is exhausted; the union of
    // claimed steps must be exactly [0, N).
    constexpr std::int64_t kN = 5000;
    constexpr int kRanks = 8;
    std::array<std::atomic<int>, kN> claimed{};
    run(kRanks, [&](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        for (;;) {
            const std::int64_t step = win.fetch_add<std::int64_t>(1, 0, 0);
            if (step >= kN) {
                break;
            }
            claimed[static_cast<std::size_t>(step)].fetch_add(1);
        }
        w.barrier();
        win.free();
    });
    for (std::int64_t i = 0; i < kN; ++i) {
        EXPECT_EQ(claimed[static_cast<std::size_t>(i)].load(), 1) << "step " << i;
    }
}

}  // namespace
