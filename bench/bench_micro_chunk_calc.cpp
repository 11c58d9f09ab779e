/// \file bench_micro_chunk_calc.cpp
/// google-benchmark micro-measurements of the chunk calculators: the
/// step-indexed closed forms and the build-and-drain of a dls::StepTable
/// (the per-loop cost every rank pays before its first step claim) —
/// plus the chunk *bodies* themselves (section=
/// kernel_throughput): the mandelbrot escape loop per SIMD backend, so the
/// scalar-vs-vector pixel rate is tracked by the same harness that tracks
/// the scheduling overhead it must amortize.

#include <benchmark/benchmark.h>

#include <vector>

#include "apps/mandelbrot.hpp"
#include "dls/chunk_formulas.hpp"
#include "simd/dispatch.hpp"

namespace {

using hdls::dls::Technique;

hdls::dls::LoopParams bench_params() {
    hdls::dls::LoopParams p;
    p.total_iterations = 1 << 20;
    p.workers = 16;
    p.sigma = 0.1;
    p.mu = 1.0;
    p.overhead_h = 1e-4;
    return p;
}

void BM_StepIndexedChunk(benchmark::State& state) {
    const auto technique = static_cast<Technique>(state.range(0));
    const auto p = bench_params();
    std::int64_t step = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hdls::dls::chunk_size_for_step(technique, p, step));
        step = (step + 1) % 256;
    }
    state.SetLabel(std::string(hdls::dls::technique_name(technique)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StepIndexedChunk)
    ->Arg(static_cast<int>(Technique::Static))
    ->Arg(static_cast<int>(Technique::SS))
    ->Arg(static_cast<int>(Technique::FSC))
    ->Arg(static_cast<int>(Technique::GSS))
    ->Arg(static_cast<int>(Technique::TSS))
    ->Arg(static_cast<int>(Technique::FAC2))
    ->Arg(static_cast<int>(Technique::TFSS))
    ->Arg(static_cast<int>(Technique::RND));

/// Builds a loop's StepTable and reads every step's range: what a rank
/// pays once per loop, plus one lookup per chunk it could claim.
void BM_StepTableBuildAndDrain(benchmark::State& state) {
    const auto technique = static_cast<Technique>(state.range(0));
    const auto p = bench_params();
    for (auto _ : state) {
        const hdls::dls::StepTable table(technique, p);
        for (std::int64_t step = 0; step < table.steps(); ++step) {
            benchmark::DoNotOptimize(table.at(step).size);
        }
        state.counters["chunks"] = benchmark::Counter(static_cast<double>(table.steps()),
                                                      benchmark::Counter::kDefaults);
    }
    state.SetLabel(std::string(hdls::dls::technique_name(technique)));
}
BENCHMARK(BM_StepTableBuildAndDrain)
    ->Arg(static_cast<int>(Technique::Static))
    ->Arg(static_cast<int>(Technique::SS))
    ->Arg(static_cast<int>(Technique::FSC))
    ->Arg(static_cast<int>(Technique::GSS))
    ->Arg(static_cast<int>(Technique::TSS))
    ->Arg(static_cast<int>(Technique::FAC2))
    ->Arg(static_cast<int>(Technique::TFSS))
    ->Arg(static_cast<int>(Technique::RND))
    ->Unit(benchmark::kMicrosecond);

/// Pixels/s of the mandelbrot batch kernel per compiled-in backend. Skips
/// backends the executing CPU cannot run. items_processed = pixels, so the
/// reported items/s IS the pixel throughput; the label carries
/// section=kernel_throughput for the perf-smoke JSON parser.
void BM_MandelbrotKernel(benchmark::State& state) {
    const auto backend = static_cast<hdls::simd::Backend>(state.range(0));
    if (!hdls::simd::backend_usable(backend)) {
        // 1.7.x has no SkipWithMessage; run one no-op iteration so the row
        // reports ~0 items/s instead of failing the whole binary.
        for (auto _ : state) {
        }
        state.SetLabel("section=kernel_throughput backend=" +
                       std::string(hdls::simd::backend_name(backend)) + " skipped=1");
        return;
    }
    const auto& kernels = hdls::simd::kernels_for(backend);
    hdls::apps::MandelbrotConfig cfg;
    cfg.width = 256;
    cfg.height = 256;
    cfg.max_iter = 256;
    const hdls::simd::MandelbrotGeom geom = hdls::apps::mandelbrot_geometry(cfg);
    std::vector<int> out(static_cast<std::size_t>(cfg.pixels()));
    for (auto _ : state) {
        kernels.mandelbrot(geom, 0, cfg.pixels(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel("section=kernel_throughput backend=" +
                   std::string(hdls::simd::backend_name(backend)) +
                   " width=" + std::to_string(kernels.width));
    state.SetItemsProcessed(state.iterations() * cfg.pixels());
}
BENCHMARK(BM_MandelbrotKernel)
    ->Arg(static_cast<int>(hdls::simd::Backend::Scalar))
    ->Arg(static_cast<int>(hdls::simd::Backend::Avx2))
    ->Arg(static_cast<int>(hdls::simd::Backend::Neon))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
