/**
 * @file
 * The benchmark's own harness: run-length and seed plumbing, the
 * order statistics every timing is reported with, layer self-time
 * accounting for the traced runs, answer checking, and the one-line
 * result every run prints last.
 *
 * Nothing here touches the library's internals: workloads call the
 * public hdham API and time it from outside, around those calls.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "lang/corpus.hh"

namespace perfbench
{

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for model files and the server socket. */
    std::string workdir = ".";
};

/**
 * The corpus one benchmark seed selects. Seed 0 is the library's
 * default corpus -- the one a bare `hdham train` sees -- and every
 * other seed XORs into that master seed, so the program only ever
 * receives a generated corpus.
 */
hdham::lang::CorpusConfig corpusFor(std::uint64_t seed);

/** Seed the corpus, and so every reported figure, defaults to. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Seed kept aside to re-check claims made on the default seed. */
constexpr std::uint64_t kHeldOutSeed = 20170204;

/** Monotonic seconds since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The @p q-quantile (q in [0, 1]) of @p values by linear interpolation
 * between closest ranks (the "inclusive" definition). 0 for an empty
 * sample.
 */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(const std::vector<double> &values);

/**
 * Median of the quietest window: the smallest of the per-window
 * medians (empty windows are skipped; 0 when all are empty). A run
 * splits its samples into consecutive time windows; interference from
 * other tenants of a shared host only ever slows a window down, so
 * the fastest window's median is the steadiest estimate of the
 * program's own cost.
 */
double quietestMedian(const std::vector<std::vector<double>> &windows);

/** Geometric mean of strictly positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * The host-speed calibration loops: the benchmark's own fixed integer
 * work, which never calls the library, so only the host's speed moves
 * it. A host shared with other tenants slows code by how much its
 * instruction mix competes with theirs, so each workload calibrates
 * with the loop shaped like its own hot path.
 */
enum class CalibrationLoop
{
    /** Byte-table lane adds over 10,000 counters, as bundling does. */
    Bundle,
    /** Bit-driven counter adds and a popcount fold: ALU work, like
        the Hamming scan and the ham designs. */
    Scan,
};

/** Seconds one pass of @p loop takes now. */
double calibrationPassS(CalibrationLoop loop);

/**
 * The calibration pass time every host-normalized figure is scaled to:
 * about what the pass takes on a quiet 2 GHz x86-64 core.
 */
constexpr double kCalibrationRefS = 1e-3;

/** Median of @p passes passes of @p loop, seconds. */
double calibrate(CalibrationLoop loop, int passes = 3);

/**
 * @p seconds of work timed between two calibrations, scaled to a host
 * whose calibration pass takes kCalibrationRefS. A shared host slows
 * the workload and the calibration loop alike, so the ratio holds
 * still while the host's speed drifts. Rates scale the other way:
 * divide by the factor this applies.
 */
double hostNormalized(double seconds, double calBefore, double calAfter);

/**
 * Accumulated self time of the layers a traced run splits a workload
 * into. The traced workloads time disjoint blocks around the library
 * calls -- no block nests inside another -- so a layer's self time is
 * the sum of its blocks, and the layers' self times add up to the
 * traced time they cover.
 */
class LayerClock
{
  public:
    /** Add one block of @p seconds to @p layer. */
    void charge(const std::string &layer, double seconds);

    /** Self time of @p layer (0 for a layer never charged). */
    double self(const std::string &layer) const;

    /** Sum of every layer's self time. */
    double total() const;

  private:
    std::vector<std::pair<std::string, double>> layers;
};

/**
 * Counts checked operations and the ones whose answer disagreed with
 * the oracle. Every workload reports both; a run is correct only when
 * nothing failed.
 */
class Checks
{
  public:
    /** One checked operation; @p ok false counts it as failed. */
    void expect(bool ok, const char *what);

    std::uint64_t attempted() const { return tried; }
    std::uint64_t failed() const { return bad; }
    /** First failure message ("" when none). */
    const std::string &firstFailure() const { return first; }

  private:
    std::uint64_t tried = 0;
    std::uint64_t bad = 0;
    std::string first;
};

/**
 * Check @p got against the oracle's @p expected answers: one checked
 * operation per expected answer, plus one for the answer count.
 */
void checkAnswers(Checks &checks, const std::vector<std::size_t> &expected,
                  const std::vector<std::size_t> &got, const char *what);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Report
{
    Checks checks;
    /** The metrics of this run's mode (end-to-end or per-layer). */
    std::vector<Metric> metrics;
    /**
     * Workload-specific figures printed for people above the result
     * line (the issue-level names: wall_s, qps, swap_p50_us, ...).
     */
    std::vector<Metric> details;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void detail(const std::string &name, double value,
                const std::string &unit)
    {
        details.push_back({name, value, unit});
    }
};

/** Host/build fingerprint stamped on every result. */
struct Fingerprint
{
    unsigned nproc = 0;
    std::string kernel;
    std::string buildType;
};

/** nproc, the auto-selected Hamming kernel and the build type. */
Fingerprint fingerprint();

/** Peak resident set of this process so far, in MiB (VmHWM). */
double peakRssMb();

/**
 * Print the human-readable lines (fingerprint, details) and then the
 * single-line result object, last.
 */
void writeReport(std::ostream &out, const RunArgs &args,
                 const Report &report);

/** The result line alone: {"correct","attempted","failed","metrics"}. */
std::string resultLine(const Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
