#include "ham/device_r_ham.hh"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "circuit/technology.hh"
#include "core/batch_executor.hh"

namespace hdham::ham
{

namespace
{

circuit::Crossbar
manufacture(const DeviceRHamConfig &cfg)
{
    const circuit::Technology &tech = circuit::Technology::instance();
    circuit::MemristorSpec spec{tech.rhamRon, tech.rhamRoff,
                                cfg.deviceSigma};
    Rng rng(cfg.seed ^ 0x6d616e756661ULL); // "manufa"
    circuit::Crossbar array(cfg.capacity, cfg.dim, spec, rng);
    if (cfg.stuckFraction > 0.0)
        array.injectStuckFaults(cfg.stuckFraction, rng);
    return array;
}

circuit::MatchLineConfig
ladderConfig(const DeviceRHamConfig &cfg)
{
    circuit::MatchLineConfig ml =
        circuit::MatchLineConfig::rhamBlock(cfg.blockBits);
    ml.v0 = cfg.vdd;
    return ml;
}

} // namespace

DeviceRHam::DeviceRHam(const DeviceRHamConfig &config)
    : cfg(config),
      array(manufacture(cfg)),
      ladder(ladderConfig(cfg)),
      rng(cfg.seed)
{
    if (cfg.blockBits == 0 || cfg.dim % cfg.blockBits != 0)
        throw std::invalid_argument("DeviceRHam: block width must "
                                    "divide the dimension");
}

std::size_t
DeviceRHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("DeviceRHam::store: dimension "
                                    "mismatch");
    if (storedRows >= cfg.capacity)
        throw std::logic_error("DeviceRHam::store: crossbar full");
    array.programRow(storedRows, hv);
    return storedRows++;
}

std::size_t
DeviceRHam::senseRow(std::size_t row, const Hypervector &query)
{
    assert(row < storedRows);
    const circuit::Technology &tech = circuit::Technology::instance();
    const auto &times = ladder.samplingTimes();
    const double skew = ladder.effectiveClockJitter();
    const double cap = ladder.config().capPerCell;
    const double vth = ladder.config().vth;

    std::size_t total = 0;
    for (std::size_t first = 0; first < cfg.dim;
         first += cfg.blockBits) {
        const double crossing = array.blockCrossingTime(
            row, query, first, first + cfg.blockBits, cap, cfg.vdd,
            vth, tech.cellTransistorR);
        // Clocked SA ladder: SA j fires when the ML has crossed by
        // its (jittered) sampling instant.
        for (const double sampleAt : times) {
            if (crossing <= sampleAt + skew * rng.nextGaussian())
                ++total;
        }
    }
    return total;
}

HamResult
DeviceRHam::search(const Hypervector &query)
{
    if (storedRows == 0)
        throw std::logic_error("DeviceRHam::search: no stored "
                               "classes");
    batch::requireDim(query, cfg.dim, "DeviceRHam::search");
    HamResult result;
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t row = 0; row < storedRows; ++row) {
        const std::size_t sensed = senseRow(row, query);
        if (sensed < best) {
            best = sensed;
            result.classId = row;
        }
    }
    result.reportedDistance = best;
    return result;
}

} // namespace hdham::ham
