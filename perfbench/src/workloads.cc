#include "workloads.hh"

#include <algorithm>

#include "core/item_memory.hh"

namespace perfbench
{

void
addEndToEnd(Report &report, const EndToEnd &e)
{
    report.add("setup_s", e.setupS, "s");
    report.add("peak_rss_mb", e.peakRssMb, "MB");
    report.add("latency_ms", e.latencyMs, "ms");
    report.add("ops_per_s", e.opsPerS, "1/s");
    report.add("accuracy", e.accuracy, "ratio");
}

void
addLayers(Report &report, const LayerSample &s)
{
    report.add("normalize.self_s", s.normalizeS, "s");
    report.add("normalize.chars", static_cast<double>(s.chars), "count");
    report.add("bind.self_s", s.bindS, "s");
    report.add("bind.ngrams", static_cast<double>(s.ngrams), "count");
    report.add("bundle.self_s", s.bundleS, "s");
    report.add("bundle.ns_per_ngram",
               s.ngrams == 0 ? 0.0
                             : 1e9 * s.bundleS /
                                   static_cast<double>(s.ngrams),
               "ns");
    report.add("majority.self_s", s.majorityS, "s");
    report.add("majority.calls", static_cast<double>(s.majorityCalls),
               "count");
    report.add("encoder.setup_us", s.encoderSetupUs, "us");
    report.add("encode.us", s.encodeUs, "us");
    report.add("scan.us", s.scanUs, "us");
    report.add("pin.us", s.pinUs, "us");
    report.add("frame.ping_us", s.pingUs, "us");
    report.add("serve.residual_us", s.residualUs, "us");
    report.add("scan.self_s", s.scanS, "s");
    report.add("scan.rows_scanned", static_cast<double>(s.rowsScanned),
               "count");
    report.add("dham.rows_pruned", static_cast<double>(s.dhamRowsPruned),
               "count");
    report.add("dham.rows_scanned",
               static_cast<double>(s.dhamRowsScanned), "count");
    report.add("ham.self_s", s.hamS, "s");
    report.add("rham.blocks_sensed",
               static_cast<double>(s.rhamBlocksSensed), "count");
    report.add("rham.sa_fires", static_cast<double>(s.rhamSaFires),
               "count");
    report.add("aham.lta_comparisons",
               static_cast<double>(s.ahamLtaComparisons), "count");
    report.add("aham.stages", static_cast<double>(s.ahamStages),
               "count");
    report.add("publish.build_us", s.publishBuildUs, "us");
    report.add("publish.swap_us", s.publishSwapUs, "us");
    report.add("builder.add_sample_us", s.addSampleUs, "us");
    report.add("save.self_s", s.saveS, "s");
    report.add("decide.self_s", s.decideS, "s");
    report.add("trace.overhead_pct", s.overheadPct, "%");
    report.add("trace.covered_pct", s.coveredPct, "%");
}

void
takeEncodeLayers(const LayerClock &clock, LayerSample &s)
{
    s.normalizeS = clock.self("normalize");
    s.bindS = clock.self("bind");
    s.bundleS = clock.self("bundle");
    s.majorityS = clock.self("majority");
}

double
timedSetups(int times, const std::function<void()> &setup,
            CalibrationLoop loop, double &rawS)
{
    std::vector<double> took, scaled;
    double cal = calibrate(loop);
    for (int i = 0; i < times; ++i) {
        const double start = now();
        setup();
        took.push_back(now() - start);
        const double next = calibrate(loop);
        scaled.push_back(hostNormalized(took.back(), cal, next));
        cal = next;
    }
    rawS = median(took);
    return median(scaled);
}

TracedEncoder::TracedEncoder(const hdham::Encoder &encoder,
                             LayerClock &clock)
    : enc(encoder),
      clock(clock),
      symbols(encoder.ngramSize()),
      block(kBlock, hdham::Hypervector(encoder.dim()))
{
}

std::size_t
TracedEncoder::bundle(const std::string &text, hdham::Bundler &bundler)
{
    const std::size_t n = enc.ngramSize();
    if (text.size() < n)
        return 0;

    const double t0 = now();
    ids.resize(text.size());
    for (std::size_t i = 0; i < text.size(); ++i)
        ids[i] = hdham::TextAlphabet::symbolOf(text[i]);
    clock.charge("normalize", now() - t0);
    charCount += text.size();

    const std::size_t grams = text.size() - n + 1;
    for (std::size_t start = 0; start < grams; start += kBlock) {
        const std::size_t m = std::min(kBlock, grams - start);
        const double b0 = now();
        for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < n; ++k)
                symbols[k] = ids[start + j + k];
            block[j] = enc.encodeNgram(symbols);
        }
        const double b1 = now();
        for (std::size_t j = 0; j < m; ++j)
            bundler.add(block[j]);
        const double b2 = now();
        clock.charge("bind", b1 - b0);
        clock.charge("bundle", b2 - b1);
    }
    gramCount += grams;
    return grams;
}

hdham::Hypervector
TracedEncoder::majority(const hdham::Bundler &bundler, hdham::Rng &rng)
{
    const double t0 = now();
    hdham::Hypervector hv = bundler.majority(rng);
    clock.charge("majority", now() - t0);
    ++majorityCount;
    return hv;
}

hdham::Hypervector
TracedEncoder::encode(const std::string &text, hdham::Rng &rng)
{
    const double t0 = now();
    hdham::Bundler bundler(enc.dim());
    clock.charge("bundle", now() - t0);
    bundle(text, bundler);
    return majority(bundler, rng);
}

} // namespace perfbench
