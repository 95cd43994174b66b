/**
 * @file
 * Software microbenchmarks (google-benchmark): throughput of the
 * core primitives behind every experiment -- Hamming distance,
 * associative search, trigram encoding (a sentence, and a training
 * text through the counted path) and the behavioral HAM searches --
 * across the paper's D and C sweeps.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common.hh"
#include "core/assoc_memory.hh"
#include "core/packed_rows.hh"
#include "core/bundler.hh"
#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/random.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"

namespace
{

using namespace hdham;

void
BM_HammingDistance(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Hypervector a = Hypervector::random(dim, rng);
    const Hypervector b = Hypervector::random(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.hamming(b));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HammingDistance)->Arg(512)->Arg(2000)->Arg(10000);

void
BM_Bind(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    const Hypervector a = Hypervector::random(dim, rng);
    const Hypervector b = Hypervector::random(dim, rng);
    for (auto _ : state) {
        Hypervector c = a ^ b;
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_Bind)->Arg(10000);

void
BM_BundlerAdd(benchmark::State &state)
{
    // Cycle through distinct random inputs so the counters see a
    // varying carry pattern, as real bundling does.
    const auto dim = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    std::vector<Hypervector> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(Hypervector::random(dim, rng));
    Bundler bundler(dim);
    std::size_t next = 0;
    for (auto _ : state) {
        bundler.add(pool[next]);
        next = (next + 1) % pool.size();
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_BundlerAdd)->Arg(10000);

void
BM_Majority(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    Rng rng(8);
    Bundler bundler(dim);
    for (int i = 0; i < 100; ++i)
        bundler.add(Hypervector::random(dim, rng));
    for (auto _ : state) {
        Hypervector hv = bundler.majority(rng);
        benchmark::DoNotOptimize(hv);
    }
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_Majority)->Arg(10000);

void
BM_SoftwareSearch(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto classes = static_cast<std::size_t>(state.range(1));
    Rng rng(4);
    AssociativeMemory am(dim);
    bench::storeRandomClasses(am, dim, classes, rng);
    const Hypervector query = Hypervector::random(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(am.search(query));
    state.SetItemsProcessed(state.iterations() * classes);
}
BENCHMARK(BM_SoftwareSearch)
    ->Args({10000, 6})
    ->Args({10000, 21})
    ->Args({10000, 100})
    ->Args({512, 21})
    ->Args({2000, 21});

void
BM_PackedRowsScan(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto classes = static_cast<std::size_t>(state.range(1));
    Rng rng(5);
    PackedRows rows(dim);
    bench::storeRandomClasses(rows, dim, classes, rng);
    const Hypervector query = Hypervector::random(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(rows.nearest(query, dim));
    state.SetItemsProcessed(state.iterations() * classes);
}
BENCHMARK(BM_PackedRowsScan)
    ->Args({10000, 21})
    ->Args({10000, 100});

void
BM_TrigramEncode(benchmark::State &state)
{
    ItemMemory items(TextAlphabet::size, 10000, 5);
    Encoder encoder(items, 3);
    Rng rng(6);
    const std::string sentence(
        "the quick brown fox jumps over the lazy dog and keeps "
        "running through the synthetic corpus");
    for (auto _ : state) {
        Hypervector hv = encoder.encode(sentence, rng);
        benchmark::DoNotOptimize(hv);
    }
    state.SetItemsProcessed(state.iterations() * sentence.size());
}
BENCHMARK(BM_TrigramEncode);

void
BM_EncodeIntoTrainingText(benchmark::State &state)
{
    // One default 120k-character training text (the first language
    // of the default corpus) through the encoder's counted path, into
    // a cleared Bundler at D = 10,000.
    lang::CorpusConfig cfg;
    cfg.numLanguages = 1;
    cfg.testSentences = 0;
    const lang::SyntheticCorpus corpus(cfg);
    const std::string &text = corpus.trainingText(0);
    ItemMemory items(TextAlphabet::size, 10000, 5);
    Encoder encoder(items, 3);
    Bundler bundler(encoder.dim());
    for (auto _ : state) {
        bundler.clear();
        benchmark::DoNotOptimize(encoder.encodeInto(text, bundler));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_EncodeIntoTrainingText)->Unit(benchmark::kMillisecond);

template <typename HamT, typename ConfigT>
void
hamSearchBenchmark(benchmark::State &state)
{
    constexpr std::size_t dim = 10000, classes = 21;
    Rng rng(7);
    ConfigT cfg;
    cfg.dim = dim;
    HamT ham(cfg);
    bench::storeRandomClasses(ham, dim, classes, rng);
    const Hypervector query = Hypervector::random(dim, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(ham.search(query));
    state.SetItemsProcessed(state.iterations() * classes);
}

void
BM_DHamSearch(benchmark::State &state)
{
    hamSearchBenchmark<ham::DHam, ham::DHamConfig>(state);
}
BENCHMARK(BM_DHamSearch);

void
BM_RHamSearch(benchmark::State &state)
{
    hamSearchBenchmark<ham::RHam, ham::RHamConfig>(state);
}
BENCHMARK(BM_RHamSearch);

void
BM_AHamSearch(benchmark::State &state)
{
    hamSearchBenchmark<ham::AHam, ham::AHamConfig>(state);
}
BENCHMARK(BM_AHamSearch);

} // namespace

BENCHMARK_MAIN();
