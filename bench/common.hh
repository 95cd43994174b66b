/**
 * @file
 * Shared helpers for the reproduction harness: a standard workload
 * (matching Section IV-A at reduced sample counts so every bench
 * runs in seconds) and table-printing utilities.
 *
 * Every bench binary prints the rows/series of one paper table or
 * figure, with the paper's value next to the measured one where the
 * paper states a number.
 */

#ifndef HDHAM_BENCH_COMMON_HH
#define HDHAM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/random.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

namespace hdham::bench
{

/** @p count random query hypervectors of dimensionality @p dim. */
inline std::vector<Hypervector>
makeQueries(std::size_t dim, std::size_t count, Rng &rng)
{
    std::vector<Hypervector> queries;
    queries.reserve(count);
    for (std::size_t q = 0; q < count; ++q)
        queries.push_back(Hypervector::random(dim, rng));
    return queries;
}

/**
 * Store @p classes random prototypes into @p memory --
 * AssociativeMemory and the HAM designs (store), or PackedRows
 * (append) -- and return them for query synthesis.
 */
template <typename Memory>
std::vector<Hypervector>
storeRandomClasses(Memory &memory, std::size_t dim,
                   std::size_t classes, Rng &rng)
{
    std::vector<Hypervector> prototypes;
    prototypes.reserve(classes);
    for (std::size_t c = 0; c < classes; ++c) {
        prototypes.push_back(Hypervector::random(dim, rng));
        if constexpr (requires { memory.append(prototypes.back()); })
            memory.append(prototypes.back());
        else
            memory.store(prototypes.back());
    }
    return prototypes;
}

/**
 * Skewed query workload: each query is a stored prototype with
 * floor(@p flip * dim) random bits flipped, so it sits close to one
 * prototype and ~dim/2 from the rest. Real classification queries
 * are much farther from their class: a held-out sentence of the
 * default language workload sits a median 4,106 of 10,000 bits from
 * its language and 4,613 from the runner-up.
 */
inline std::vector<Hypervector>
makeSkewedQueries(const std::vector<Hypervector> &prototypes,
                  std::size_t count, double flip, Rng &rng)
{
    std::vector<Hypervector> queries;
    queries.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
        Hypervector hv = prototypes[q % prototypes.size()];
        hv.injectErrors(
            static_cast<std::size_t>(flip *
                                     static_cast<double>(hv.dim())),
            rng);
        queries.push_back(std::move(hv));
    }
    return queries;
}

/** A scratch path under $TMPDIR (or /tmp) for benchmark fixtures. */
inline std::string
tempPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    std::string base =
        (dir != nullptr && *dir != '\0') ? dir : "/tmp";
    if (base.back() != '/')
        base += '/';
    return base + name;
}

/**
 * Optional CSV sink for figure series: when the environment variable
 * HDHAM_CSV_DIR is set, each figure bench additionally writes its
 * series as <dir>/<name>.csv for external plotting; otherwise the
 * writer swallows everything.
 */
class CsvWriter
{
  public:
    explicit CsvWriter(const std::string &name)
    {
        const char *dir = std::getenv("HDHAM_CSV_DIR");
        if (dir != nullptr && *dir != '\0')
            file.open(std::string(dir) + "/" + name + ".csv");
    }

    /** Write one comma-separated row (pass preformatted cells). */
    template <typename... Cells>
    void
    row(const Cells &...cells)
    {
        if (!file.is_open())
            return;
        const char *sep = "";
        ((file << sep << cells, sep = ","), ...);
        file << "\n";
    }

  private:
    std::ofstream file;
};

/** The corpus every experiment shares (built once per process). */
inline const lang::SyntheticCorpus &
corpus()
{
    static const lang::SyntheticCorpus instance = [] {
        lang::CorpusConfig cfg;
        cfg.trainChars = 60000;   // paper: ~1 MB/language
        cfg.testSentences = 50;   // paper: 1,000/language
        return lang::SyntheticCorpus(cfg);
    }();
    return instance;
}

/** Trained pipeline at dimensionality @p dim. */
inline std::unique_ptr<lang::RecognitionPipeline>
makePipeline(std::size_t dim)
{
    lang::PipelineConfig cfg;
    cfg.dim = dim;
    return std::make_unique<lang::RecognitionPipeline>(corpus(),
                                                       cfg);
}

/** Print a banner naming the experiment. */
inline void
banner(const char *experiment, const char *description)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s -- %s\n", experiment, description);
    std::printf("================================================="
                "=============\n");
}

/** Print a paper-vs-measured line for a scalar. */
inline void
compare(const char *what, double measured, double paper,
        const char *unit = "")
{
    std::printf("  %-44s measured %10.3g %-5s (paper: %.3g)\n", what,
                measured, unit, paper);
}

} // namespace hdham::bench

#endif // HDHAM_BENCH_COMMON_HH
