#include "harness.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/distance.hh"
#include "core/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

hdham::lang::CorpusConfig
corpusFor(std::uint64_t seed)
{
    hdham::lang::CorpusConfig cfg;
    cfg.seed ^= seed;
    return cfg;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
quietestMedian(const std::vector<std::vector<double>> &windows)
{
    double best = 0.0;
    bool any = false;
    for (const std::vector<double> &window : windows) {
        if (window.empty())
            continue;
        const double m = median(window);
        if (!any || m < best)
            best = m;
        any = true;
    }
    return best;
}

namespace
{

/** Keeps the calibration loops' results alive. */
volatile std::uint64_t calibrationSink;

constexpr std::size_t kCalibrationDim = 10000;
constexpr std::size_t kCalibrationWords = (kCalibrationDim + 63) / 64;

std::vector<std::uint64_t>
calibrationWords()
{
    std::vector<std::uint64_t> w(kCalibrationWords);
    for (std::size_t i = 0; i < kCalibrationWords; ++i)
        w[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    return w;
}

/** Each byte's bits spread over eight 16-bit lanes of two words. */
struct ByteLanes
{
    std::uint64_t lanes[256][2] = {};
    ByteLanes()
    {
        for (unsigned b = 0; b < 256; ++b) {
            for (unsigned k = 0; k < 8; ++k) {
                if ((b >> k) & 1)
                    lanes[b][k / 4] |= 1ULL << (16 * (k % 4));
            }
        }
    }
};

double
bundleLoop()
{
    constexpr int kReps = 770;
    static const ByteLanes table;
    static std::vector<std::uint64_t> words = calibrationWords();
    static std::vector<std::uint64_t> lanes(2 * 8 * kCalibrationWords);

    const double start = now();
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t *lane = lanes.data();
        for (const std::uint64_t w : words) {
            std::uint64_t word = w;
            for (unsigned byte = 0; byte < 8; ++byte) {
                const std::uint64_t *e = table.lanes[word & 0xff];
                lane[0] += e[0];
                lane[1] += e[1];
                lane += 2;
                word >>= 8;
            }
        }
        words[static_cast<std::size_t>(rep) % kCalibrationWords] ^=
            lanes[static_cast<std::size_t>(rep) % lanes.size()] + 1;
    }
    const double took = now() - start;
    calibrationSink = lanes[words[0] % lanes.size()];
    return took;
}

double
scanLoop()
{
    constexpr int kReps = 70;
    static std::vector<std::int32_t> counts(kCalibrationDim);
    static std::vector<std::uint64_t> words = calibrationWords();

    const double start = now();
    std::uint64_t fold = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < kCalibrationDim; ++i)
            counts[i] += static_cast<std::int32_t>(
                (words[i >> 6] >> (i & 63)) & 1);
        for (const std::uint64_t w : words)
            fold += static_cast<std::uint64_t>(std::popcount(w ^ fold));
        words[static_cast<std::size_t>(rep) % kCalibrationWords] ^= fold;
    }
    const double took = now() - start;
    calibrationSink =
        fold + static_cast<std::uint64_t>(counts[fold % kCalibrationDim]);
    return took;
}

} // namespace

double
calibrationPassS(CalibrationLoop loop)
{
    return loop == CalibrationLoop::Bundle ? bundleLoop() : scanLoop();
}

double
calibrate(CalibrationLoop loop, int passes)
{
    std::vector<double> took;
    for (int i = 0; i < passes; ++i)
        took.push_back(calibrationPassS(loop));
    return median(took);
}
double
hostNormalized(double seconds, double calBefore, double calAfter)
{
    return seconds * kCalibrationRefS / (0.5 * (calBefore + calAfter));
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
LayerClock::charge(const std::string &layer, double seconds)
{
    for (auto &[name, spent] : layers) {
        if (name == layer) {
            spent += seconds;
            return;
        }
    }
    layers.emplace_back(layer, seconds);
}

double
LayerClock::self(const std::string &layer) const
{
    for (const auto &[name, spent] : layers) {
        if (name == layer)
            return spent;
    }
    return 0.0;
}

double
LayerClock::total() const
{
    double sum = 0.0;
    for (const auto &entry : layers)
        sum += entry.second;
    return sum;
}

void
Checks::expect(bool ok, const char *what)
{
    ++tried;
    if (ok)
        return;
    if (bad == 0)
        first = what;
    ++bad;
}

void
checkAnswers(Checks &checks, const std::vector<std::size_t> &expected,
             const std::vector<std::size_t> &got, const char *what)
{
    checks.expect(got.size() == expected.size(), what);
    for (std::size_t i = 0; i < expected.size(); ++i)
        checks.expect(i < got.size() && got[i] == expected[i], what);
}

Fingerprint
fingerprint()
{
    Fingerprint fp;
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    fp.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    fp.kernel = hdham::distance::activeKernelName();
    fp.buildType = PERFBENCH_BUILD_TYPE;
    return fp;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

namespace
{

std::string
number(double v)
{
    std::ostringstream out;
    hdham::json::writeNumber(out, v);
    return out.str();
}

} // namespace

std::string
resultLine(const Report &report)
{
    std::ostringstream out;
    out << "{\"correct\": "
        << (report.checks.failed() == 0 &&
                    report.checks.attempted() > 0
                ? "true"
                : "false")
        << ", \"attempted\": " << report.checks.attempted()
        << ", \"failed\": " << report.checks.failed()
        << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : report.metrics) {
        out << (first ? "" : ", ");
        first = false;
        hdham::json::writeEscaped(out, m.name);
        out << ": {\"value\": " << number(m.value) << ", \"unit\": ";
        hdham::json::writeEscaped(out, m.unit);
        out << "}";
    }
    out << "}}";
    return out.str();
}

void
writeReport(std::ostream &out, const RunArgs &args,
            const Report &report)
{
    const Fingerprint fp = fingerprint();
    out << "fingerprint nproc=" << fp.nproc << " kernel=" << fp.kernel
        << " build=" << fp.buildType << " workload=" << args.workload
        << " seed=" << args.seed << " seconds=" << args.seconds
        << " trace=" << (args.trace ? 1 : 0) << "\n";
    char line[160];
    for (const Metric &m : report.details) {
        std::snprintf(line, sizeof line, "  %-26s %18.10g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        out << line;
    }
    if (report.checks.failed() != 0) {
        out << "FAILED " << report.checks.failed() << " of "
            << report.checks.attempted()
            << " checks; first: " << report.checks.firstFailure()
            << "\n";
    }
    out << resultLine(report) << "\n";
    out.flush();
}

} // namespace perfbench
