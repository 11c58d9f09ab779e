// Tests of the benchmark's own arithmetic: the tail-percentile rule and
// the closure of the span bookkeeping (startup + compute + sched +
// idle_tail + teardown = the loop's wall time, per worker).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bookkeeping.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_median() {
    CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
}

void test_tail_needs_ten_samples_beyond() {
    std::vector<double> ten(10, 1.0);
    CHECK(!perfbench::tail(ten).has_value());

    // 1..11: only the minimum has ten samples above it.
    std::vector<double> eleven;
    for (int i = 11; i >= 1; --i) {
        eleven.push_back(i);
    }
    const auto t11 = perfbench::tail(eleven);
    CHECK(t11.has_value() && near(t11->value, 1.0));

    // 1..100: the 90th value (90) has exactly ten values (91..100) above it.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) {
        hundred.push_back(i);
    }
    const auto t100 = perfbench::tail(hundred);
    CHECK(t100.has_value() && near(t100->value, 90.0) && near(t100->percentile, 90.0));
    std::size_t above = 0;
    for (double v : hundred) {
        above += v > t100->value ? 1 : 0;
    }
    CHECK(above == 10);
}

void test_parts_sum_to_wall() {
    // Worker 0: two calls; worker 1: one call ending last; worker 2 never
    // ran the body. Wall 1.0, last body end L = 0.8.
    const std::vector<std::vector<perfbench::Span>> spans{
        {{0.1, 0.3}, {0.35, 0.6}},
        {{0.05, 0.8}},
    };
    const perfbench::LoopParts p = perfbench::attribute(spans, 3, 1.0);
    CHECK(p.consistent && p.workers.size() == 3);
    CHECK(near(p.last_body_end, 0.8));
    const auto& w0 = p.workers[0];
    CHECK(near(w0.startup, 0.1) && near(w0.compute, 0.45) && near(w0.sched, 0.05));
    CHECK(near(w0.idle_tail, 0.2) && near(w0.teardown, 0.2) && w0.calls == 2);
    const auto& w2 = p.workers[2];
    CHECK(near(w2.idle_tail, 0.8) && near(w2.teardown, 0.2) && w2.calls == 0);
    for (const auto& w : p.workers) {
        CHECK(near(w.total(), 1.0));
    }
    CHECK(p.closes(0.01));
}

void test_inconsistent_spans_do_not_close() {
    // Overlapping calls on one worker cannot be one thread's sequence.
    CHECK(!perfbench::attribute({{{0.1, 0.5}, {0.4, 0.6}}}, 1, 1.0).closes());
    // A body running past the loop's return.
    CHECK(!perfbench::attribute({{{0.1, 1.5}}}, 1, 1.0).closes());
    // More calling threads than workers.
    CHECK(!perfbench::attribute({{{0.1, 0.2}}, {{0.1, 0.2}}}, 1, 1.0).closes());
    // A part off by more than the tolerance.
    perfbench::LoopParts p = perfbench::attribute({{{0.1, 0.2}}}, 1, 1.0);
    p.workers[0].compute += 0.02;
    CHECK(!p.closes(0.01));
    CHECK(p.closes(0.03));
}

}  // namespace

int main() {
    test_median();
    test_tail_needs_ten_samples_beyond();
    test_parts_sum_to_wall();
    test_inconsistent_spans_do_not_close();
    if (g_failures == 0) {
        std::puts("test_bookkeeping: all checks passed");
    }
    return g_failures == 0 ? 0 : 1;
}
