#include "ham/device_a_ham.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "circuit/technology.hh"
#include "core/batch_executor.hh"

namespace hdham::ham
{

namespace
{

circuit::Crossbar
manufacture(const DeviceAHamConfig &cfg)
{
    const circuit::Technology &tech = circuit::Technology::instance();
    circuit::MemristorSpec spec{tech.ahamRon, tech.ahamRoff,
                                cfg.deviceSigma};
    Rng rng(cfg.seed ^ 0x6d616e756661ULL); // "manufa"
    return circuit::Crossbar(cfg.capacity, cfg.dim, spec, rng);
}

} // namespace

DeviceAHam::DeviceAHam(const DeviceAHamConfig &config)
    : cfg(config), array(manufacture(cfg)), rng(cfg.seed)
{
    if (cfg.effectiveStages() == 0 ||
        cfg.effectiveStages() > cfg.dim) {
        throw std::invalid_argument("DeviceAHam: bad stage count");
    }
}

std::size_t
DeviceAHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("DeviceAHam::store: dimension "
                                    "mismatch");
    if (storedRows >= cfg.capacity)
        throw std::logic_error("DeviceAHam::store: crossbar full");
    array.programRow(storedRows, hv);
    return storedRows++;
}

double
DeviceAHam::rowCurrent(std::size_t row, const Hypervector &query)
{
    assert(row < storedRows);
    const std::size_t stages = cfg.effectiveStages();
    const std::size_t stageWidth = (cfg.dim + stages - 1) / stages;
    const double unitCurrent =
        cfg.searchVoltage / circuit::Technology::instance().ahamRon;

    double total = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
        const std::size_t first = s * stageWidth;
        const std::size_t last =
            std::min(first + stageWidth, cfg.dim);
        total += array.rangeCurrent(row, query, first, last,
                                    cfg.searchVoltage);
        if (s > 0) {
            // Each summing mirror contributes bounded error.
            total += (2.0 * rng.nextDouble() - 1.0) *
                     cfg.mirrorBeta * unitCurrent;
        }
    }
    return total;
}

HamResult
DeviceAHam::search(const Hypervector &query)
{
    if (storedRows == 0)
        throw std::logic_error("DeviceAHam::search: no stored "
                               "classes");
    batch::requireDim(query, cfg.dim, "DeviceAHam::search");

    std::vector<double> currents(storedRows);
    for (std::size_t row = 0; row < storedRows; ++row)
        currents[row] = rowCurrent(row, query);

    circuit::LtaConfig lta;
    lta.bits = cfg.effectiveBits();
    lta.fullScale =
        cfg.searchVoltage /
        circuit::Technology::instance().ahamRon *
        static_cast<double>(cfg.dim);
    lta.variationGrowth = circuit::ltaOffsetGrowth(cfg.variation);
    const circuit::LtaTree tree(lta);

    HamResult result;
    result.classId = tree.winner(currents, rng);
    // The analog datapath never produces a digital distance; the
    // winner's current is its only observable. Report the current
    // converted to an approximate distance in unit currents.
    const double unitCurrent =
        cfg.searchVoltage / circuit::Technology::instance().ahamRon;
    result.reportedDistance = static_cast<std::size_t>(
        std::max(0.0, currents[result.classId] / unitCurrent));
    return result;
}

} // namespace hdham::ham
