/**
 * @file
 * The four workloads of the paper's 21-language task, and the pieces
 * they share: the layer-split encoder the traced runs time, the
 * end-to-end and per-layer metric sets every run prints, and the
 * repeated set-up timer.
 *
 * Every workload uses the paper's configuration (21 languages,
 * D = 10,000, letter trigrams) and the corpus its --seed selects.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/bundler.hh"
#include "core/encoder.hh"
#include "core/hypervector.hh"
#include "core/random.hh"
#include "harness.hh"

namespace perfbench
{

Report runTrainLang(const RunArgs &args);

Report runServeMixed(const RunArgs &args);
Report runSweepScan(const RunArgs &args);
Report runSweepHam(const RunArgs &args);

/**
 * The end-to-end metrics. Every workload fills all of them; what each
 * one means per workload is tabled in the benchmark's README. Times
 * and rates are host-normalized (see hostNormalized), except in
 * serve_mixed.
 */
struct EndToEnd
{
    /** Median of the repeated set-ups, seconds. */
    double setupS = 0.0;
    double peakRssMb = 0.0;
    /** Median latency of the workload's user operation, ms. */
    double latencyMs = 0.0;
    /** Operations completed per second of measured time. */
    double opsPerS = 0.0;
    /** Share of answers naming the true language. */
    double accuracy = 0.0;
};

void addEndToEnd(Report &report, const EndToEnd &e);

/**
 * The per-layer metrics of a traced run. A layer the workload never
 * calls stays 0 (its count is 0 too), so every traced run prints the
 * same names.
 */
struct LayerSample
{
    double normalizeS = 0.0;
    std::uint64_t chars = 0;
    double bindS = 0.0;
    std::uint64_t ngrams = 0;
    double bundleS = 0.0;
    double majorityS = 0.0;
    std::uint64_t majorityCalls = 0;
    double encoderSetupUs = 0.0;
    double encodeUs = 0.0;
    double scanUs = 0.0;
    double pinUs = 0.0;
    double pingUs = 0.0;
    double residualUs = 0.0;
    double scanS = 0.0;
    std::uint64_t rowsScanned = 0;
    std::uint64_t dhamRowsPruned = 0;
    std::uint64_t dhamRowsScanned = 0;
    double hamS = 0.0;
    std::uint64_t rhamBlocksSensed = 0;
    std::uint64_t rhamSaFires = 0;
    std::uint64_t ahamLtaComparisons = 0;
    std::uint64_t ahamStages = 0;
    double publishBuildUs = 0.0;
    double publishSwapUs = 0.0;
    double addSampleUs = 0.0;
    double saveS = 0.0;
    double decideS = 0.0;
    /** Traced time over untraced time of the same work, minus 1. */
    double overheadPct = 0.0;
    /** Layer self times as a share of the untraced end-to-end time. */
    double coveredPct = 0.0;
};

void addLayers(Report &report, const LayerSample &s);

/** Copy the encode layers' self times out of @p clock. */
void takeEncodeLayers(const LayerClock &clock, LayerSample &s);

/**
 * Run @p setup @p times times and return the median host-normalized
 * time (see hostNormalized); @p rawS gets the median wall time. Each
 * call must leave the workload ready; the last one's state is kept.
 */
double timedSetups(int times, const std::function<void()> &setup,
                   CalibrationLoop loop, double &rawS);

/**
 * Encodes text through the library's public per-step calls --
 * TextAlphabet::symbolOf (normalize), Encoder::encodeNgram (bind),
 * Bundler::add (bundle), Bundler::majority (majority) -- timing each
 * layer into a LayerClock. Bind and bundle are timed in blocks of
 * n-grams so the timer costs little. The result is bit-identical to
 * Encoder::encodeInto / Encoder::encode on the same input and Rng.
 */
class TracedEncoder
{
  public:
    TracedEncoder(const hdham::Encoder &encoder, LayerClock &clock);

    /** Stream every n-gram of @p text into @p bundler. */
    std::size_t bundle(const std::string &text, hdham::Bundler &bundler);

    /** bundle() into a fresh Bundler, then take the majority. */
    hdham::Hypervector encode(const std::string &text, hdham::Rng &rng);

    /** Time bundler.majority(rng) as the majority layer. */
    hdham::Hypervector majority(const hdham::Bundler &bundler,
                                hdham::Rng &rng);

    std::uint64_t chars() const { return charCount; }
    std::uint64_t ngrams() const { return gramCount; }
    std::uint64_t majorities() const { return majorityCount; }

  private:
    /** N-grams per timed bind/bundle block (fits in L1). */
    static constexpr std::size_t kBlock = 32;

    const hdham::Encoder &enc;
    LayerClock &clock;
    std::vector<std::size_t> ids;
    std::vector<std::size_t> symbols;
    std::vector<hdham::Hypervector> block;
    std::uint64_t charCount = 0;
    std::uint64_t gramCount = 0;
    std::uint64_t majorityCount = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
