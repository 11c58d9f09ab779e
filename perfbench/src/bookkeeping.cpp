#include "bookkeeping.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail> tail(std::vector<double> values, std::size_t beyond) {
    const std::size_t n = values.size();
    if (n <= beyond) {
        return std::nullopt;
    }
    std::sort(values.begin(), values.end());
    const std::size_t rank = n - 1 - beyond;
    return Tail{values[rank], 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n)};
}

bool LoopParts::closes(double tolerance) const noexcept {
    if (!consistent || wall <= 0.0) {
        return false;
    }
    return std::all_of(workers.begin(), workers.end(), [&](const WorkerParts& w) {
        return std::abs(w.total() - wall) <= tolerance * wall;
    });
}

LoopParts attribute(const std::vector<std::vector<Span>>& spans, int workers, double wall) {
    LoopParts out;
    out.wall = wall;
    if (spans.size() > static_cast<std::size_t>(workers)) {
        out.consistent = false;
    }
    for (const auto& list : spans) {
        if (!list.empty()) {
            out.last_body_end = std::max(out.last_body_end, list.back().t1);
        }
    }
    if (out.last_body_end > wall) {
        out.consistent = false;
    }
    out.workers.resize(static_cast<std::size_t>(std::max(workers, 0)));
    for (std::size_t w = 0; w < out.workers.size(); ++w) {
        WorkerParts& p = out.workers[w];
        p.teardown = wall - out.last_body_end;
        if (w >= spans.size() || spans[w].empty()) {
            p.idle_tail = out.last_body_end;
            continue;
        }
        const auto& list = spans[w];
        p.startup = list.front().t0;
        p.calls = static_cast<std::int64_t>(list.size());
        if (p.startup < 0.0) {
            out.consistent = false;
        }
        for (std::size_t i = 0; i < list.size(); ++i) {
            const double d = list[i].t1 - list[i].t0;
            const double gap = i == 0 ? 0.0 : list[i].t0 - list[i - 1].t1;
            if (d < 0.0 || gap < 0.0) {
                out.consistent = false;
            }
            p.compute += d;
            p.sched += gap;
        }
        p.idle_tail = out.last_body_end - list.back().t1;
    }
    return out;
}

}  // namespace perfbench
