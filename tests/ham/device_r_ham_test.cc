/**
 * @file
 * Validation of the device-level R-HAM against the fast behavioral
 * RHam, plus deep-overscaling behavior of RHam itself.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/assoc_memory.hh"
#include "core/random.hh"
#include "ham/device_r_ham.hh"
#include "ham/r_ham.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;
using hdham::ham::DeviceRHam;
using hdham::ham::DeviceRHamConfig;
using hdham::ham::RHam;
using hdham::ham::RHamConfig;

TEST(DeviceRHamTest, ValidatesConfig)
{
    DeviceRHamConfig bad;
    bad.dim = 10;
    bad.blockBits = 4; // does not divide 10
    EXPECT_THROW(DeviceRHam{bad}, std::invalid_argument);
}

TEST(DeviceRHamTest, CapacityIsEnforced)
{
    DeviceRHamConfig cfg;
    cfg.dim = 64;
    cfg.capacity = 2;
    DeviceRHam ham(cfg);
    Rng rng(1);
    ham.store(Hypervector::random(64, rng));
    ham.store(Hypervector::random(64, rng));
    EXPECT_THROW(ham.store(Hypervector::random(64, rng)),
                 std::logic_error);
}

TEST(DeviceRHamTest, SearchRejectsWrongDimension)
{
    DeviceRHamConfig cfg;
    cfg.dim = 256;
    cfg.capacity = 2;
    DeviceRHam ham(cfg);
    Rng rng(2);
    ham.store(Hypervector::random(256, rng));
    const Hypervector query = Hypervector::random(64, rng);
    try {
        ham.search(query);
        FAIL() << "search took a 64-bit query";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "DeviceRHam::search: query dimension 64 "
                               "does not match the stored dimension 256");
    }
    try {
        ham.searchBatch({Hypervector::random(256, rng), query});
        FAIL() << "searchBatch took a 64-bit query";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "R-HAM(device)::searchBatch: query dimension 64 "
                     "does not match the stored dimension 256");
    }
}

TEST(DeviceRHamTest, OneProgrammingPassPerTrainingSession)
{
    DeviceRHamConfig cfg;
    cfg.dim = 128;
    cfg.capacity = 4;
    DeviceRHam ham(cfg);
    Rng rng(2);
    for (int c = 0; c < 4; ++c)
        ham.store(Hypervector::random(128, rng));
    EXPECT_EQ(ham.crossbar().maxWritesPerDevice(), 1u);
}

TEST(DeviceRHamTest, SensedDistanceTracksTruth)
{
    DeviceRHamConfig cfg;
    cfg.dim = 1024;
    cfg.capacity = 1;
    DeviceRHam ham(cfg);
    Rng rng(3);
    const Hypervector row = Hypervector::random(1024, rng);
    ham.store(row);
    for (std::size_t errs : {0u, 16u, 64u, 200u}) {
        Hypervector query = row;
        query.injectErrors(errs, rng);
        const std::size_t sensed = ham.senseRow(0, query);
        EXPECT_NEAR(static_cast<double>(sensed),
                    static_cast<double>(errs),
                    3.0 + 0.05 * static_cast<double>(errs))
            << "errors " << errs;
    }
}

TEST(DeviceRHamTest, ClassifiesLikeTheOracle)
{
    const std::size_t dim = 1024;
    Rng rng(4);
    AssociativeMemory oracle(dim);
    DeviceRHamConfig cfg;
    cfg.dim = dim;
    cfg.capacity = 8;
    DeviceRHam ham(cfg);
    for (int c = 0; c < 8; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    for (int q = 0; q < 30; ++q) {
        Hypervector query = oracle.vectorOf(rng.nextBelow(8));
        query.injectErrors(150, rng);
        EXPECT_EQ(ham.search(query).classId,
                  oracle.search(query).classId);
    }
}

TEST(DeviceRHamTest, AgreesWithBehavioralRham)
{
    // The fast (distribution-sampled) RHam and the slow
    // (per-device) DeviceRHam must sense statistically identical
    // distances at nominal voltage.
    const std::size_t dim = 512;
    Rng rng(5);
    const Hypervector row = Hypervector::random(dim, rng);
    Hypervector query = row;
    query.injectErrors(60, rng);

    DeviceRHamConfig devCfg;
    devCfg.dim = dim;
    devCfg.capacity = 1;
    DeviceRHam device(devCfg);
    device.store(row);

    RHamConfig behCfg;
    behCfg.dim = dim;
    RHam behavioral(behCfg);
    behavioral.store(row);

    double devSum = 0.0, behSum = 0.0;
    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
        devSum += static_cast<double>(device.senseRow(0, query));
        behSum += static_cast<double>(
            behavioral.search(query).reportedDistance);
    }
    EXPECT_NEAR(devSum / trials, 60.0, 2.0);
    EXPECT_NEAR(behSum / trials, 60.0, 2.0);
    EXPECT_NEAR(devSum / trials, behSum / trials, 2.5);
}

TEST(DeviceRHamTest, OverscalingRaisesSensingSpread)
{
    const std::size_t dim = 512;
    Rng rng(6);
    const Hypervector row = Hypervector::random(dim, rng);
    Hypervector query = row;
    query.injectErrors(80, rng);

    const auto spreadAt = [&](double vdd) {
        DeviceRHamConfig cfg;
        cfg.dim = dim;
        cfg.capacity = 1;
        cfg.vdd = vdd;
        DeviceRHam ham(cfg);
        ham.store(row);
        double sum = 0.0, sq = 0.0;
        const int n = 80;
        for (int i = 0; i < n; ++i) {
            const double d =
                static_cast<double>(ham.senseRow(0, query));
            sum += d;
            sq += d * d;
        }
        const double mean = sum / n;
        return std::sqrt(std::max(sq / n - mean * mean, 0.0));
    };
    EXPECT_GT(spreadAt(0.78), spreadAt(1.0));
}

// ---- RHam deep overscaling (Section III-C2, 720 mV) -------------

TEST(RHamDeepOverscaleTest, ErrorBudgetAccounting)
{
    RHamConfig cfg;
    cfg.dim = 10000;
    cfg.overscaledBlocks = 1000;
    cfg.deepOverscaledBlocks = 500;
    RHam ham(cfg);
    EXPECT_EQ(ham.worstCaseDistanceError(), 1000u + 2u * 500u);
}

TEST(RHamDeepOverscaleTest, BudgetValidation)
{
    RHamConfig cfg;
    cfg.dim = 100; // 25 blocks
    cfg.overscaledBlocks = 20;
    cfg.deepOverscaledBlocks = 6;
    EXPECT_THROW(RHam{cfg}, std::invalid_argument);
}

TEST(RHamDeepOverscaleTest, DeepBlocksAreNoisierThanOverscaled)
{
    const std::size_t dim = 10000;
    Rng rng(7);
    const Hypervector row = Hypervector::random(dim, rng);
    Hypervector query = row;
    query.injectErrors(1000, rng);

    const auto spread = [&](std::size_t ovs, std::size_t deep) {
        RHamConfig cfg;
        cfg.dim = dim;
        cfg.overscaledBlocks = ovs;
        cfg.deepOverscaledBlocks = deep;
        RHam ham(cfg);
        ham.store(row);
        double sq = 0.0;
        const int n = 40;
        for (int i = 0; i < n; ++i) {
            const double d = static_cast<double>(
                ham.search(query).reportedDistance);
            sq += (d - 1000.0) * (d - 1000.0);
        }
        return std::sqrt(sq / n);
    };
    EXPECT_GT(spread(0, 2500), spread(2500, 0));
}

TEST(RHamDeepOverscaleTest, ClassificationStillWorks)
{
    const std::size_t dim = 10000;
    Rng rng(8);
    RHamConfig cfg;
    cfg.dim = dim;
    cfg.deepOverscaledBlocks = 2500;
    RHam ham(cfg);
    std::vector<Hypervector> rows;
    for (int c = 0; c < 21; ++c) {
        rows.push_back(Hypervector::random(dim, rng));
        ham.store(rows.back());
    }
    int correct = 0;
    const int trials = 60;
    for (int q = 0; q < trials; ++q) {
        const std::size_t target = rng.nextBelow(21);
        Hypervector query = rows[target];
        query.injectErrors(1500, rng);
        correct += ham.search(query).classId == target;
    }
    EXPECT_GE(correct, trials - 1);
}

} // namespace
