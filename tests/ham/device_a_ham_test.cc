/**
 * @file
 * Validation of the device-level A-HAM against the behavioral AHam
 * and the idle-power model.
 */

#include <gtest/gtest.h>

#include "core/assoc_memory.hh"
#include "core/random.hh"
#include "ham/a_ham.hh"
#include "ham/device_a_ham.hh"
#include "ham/energy_model.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;
using hdham::ham::AHamModel;
using hdham::ham::DeviceAHam;
using hdham::ham::DeviceAHamConfig;
using hdham::ham::DHamModel;
using hdham::ham::RHamModel;

TEST(DeviceAHamTest, ValidatesConfig)
{
    DeviceAHamConfig bad;
    bad.dim = 4;
    bad.stages = 8;
    EXPECT_THROW(DeviceAHam{bad}, std::invalid_argument);
}

TEST(DeviceAHamTest, CapacityEnforced)
{
    DeviceAHamConfig cfg;
    cfg.dim = 128;
    cfg.capacity = 1;
    DeviceAHam ham(cfg);
    Rng rng(1);
    ham.store(Hypervector::random(128, rng));
    EXPECT_THROW(ham.store(Hypervector::random(128, rng)),
                 std::logic_error);
}

TEST(DeviceAHamTest, SearchRejectsWrongDimension)
{
    DeviceAHamConfig cfg;
    cfg.dim = 128;
    cfg.capacity = 1;
    DeviceAHam ham(cfg);
    Rng rng(2);
    ham.store(Hypervector::random(128, rng));
    const Hypervector query = Hypervector::random(64, rng);
    try {
        ham.search(query);
        FAIL() << "search took a 64-bit query";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "DeviceAHam::search: query dimension 64 "
                               "does not match the stored dimension 128");
    }
    EXPECT_THROW(ham.searchBatch({Hypervector::random(128, rng), query}),
                 std::invalid_argument);
}

TEST(DeviceAHamTest, RowCurrentScalesWithDistance)
{
    DeviceAHamConfig cfg;
    cfg.dim = 1024;
    cfg.capacity = 1;
    cfg.mirrorBeta = 0.0;
    DeviceAHam ham(cfg);
    Rng rng(2);
    const Hypervector row = Hypervector::random(1024, rng);
    ham.store(row);
    const double unit = 1.0 / 5.0e5; // 1 V across R_ON = 500 k
    double prev = -1.0;
    for (std::size_t errs : {0u, 8u, 32u, 128u}) {
        Hypervector query = row;
        query.injectErrors(errs, rng);
        const double current = ham.rowCurrent(0, query);
        EXPECT_GT(current, prev);
        EXPECT_NEAR(current, static_cast<double>(errs) * unit,
                    0.08 * static_cast<double>(errs) * unit +
                        2e-7) // OFF leakage floor
            << "errors " << errs;
        prev = current;
    }
}

TEST(DeviceAHamTest, ClassifiesLikeTheOracle)
{
    const std::size_t dim = 2048;
    Rng rng(3);
    AssociativeMemory oracle(dim);
    DeviceAHamConfig cfg;
    cfg.dim = dim;
    cfg.capacity = 8;
    DeviceAHam ham(cfg);
    for (int c = 0; c < 8; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    int correct = 0;
    const int trials = 40;
    for (int q = 0; q < trials; ++q) {
        Hypervector query = oracle.vectorOf(rng.nextBelow(8));
        query.injectErrors(200, rng);
        correct += ham.search(query).classId ==
                   oracle.search(query).classId;
    }
    EXPECT_GE(correct, trials - 1);
}

TEST(DeviceAHamTest, AgreesWithBehavioralAHam)
{
    const std::size_t dim = 2048;
    Rng rng(4);
    AssociativeMemory oracle(dim);
    for (int c = 0; c < 8; ++c)
        oracle.store(Hypervector::random(dim, rng));

    DeviceAHamConfig devCfg;
    devCfg.dim = dim;
    devCfg.capacity = 8;
    DeviceAHam device(devCfg);
    device.loadFrom(oracle);

    hdham::ham::AHamConfig behCfg;
    behCfg.dim = dim;
    hdham::ham::AHam behavioral(behCfg);
    behavioral.loadFrom(oracle);

    int agreements = 0;
    const int trials = 40;
    for (int q = 0; q < trials; ++q) {
        Hypervector query = oracle.vectorOf(rng.nextBelow(8));
        query.injectErrors(150, rng);
        agreements += device.search(query).classId ==
                      behavioral.search(query).classId;
    }
    EXPECT_GE(agreements, trials - 2);
}

TEST(IdlePowerTest, CmosLeaksNvmDoesNot)
{
    const double dham = DHamModel::idlePowerUw(10000, 100);
    const double rham = RHamModel::idlePowerUw(10000, 100);
    const double aham = AHamModel::idlePowerUw(10000, 100);
    EXPECT_GT(dham, 20.0 * rham);
    EXPECT_GT(dham, 50.0 * aham);
}

TEST(IdlePowerTest, ScalesWithArray)
{
    EXPECT_GT(DHamModel::idlePowerUw(10000, 100),
              DHamModel::idlePowerUw(10000, 6));
    EXPECT_GT(DHamModel::idlePowerUw(10000, 21),
              DHamModel::idlePowerUw(512, 21));
    // R-HAM leakage is periphery-only: independent of D.
    EXPECT_DOUBLE_EQ(RHamModel::idlePowerUw(10000, 21),
                     RHamModel::idlePowerUw(512, 21));
}

TEST(IdlePowerTest, GatingShutsOffTheLtaBias)
{
    EXPECT_GT(AHamModel::idlePowerUw(10000, 21, false),
              100.0 * AHamModel::idlePowerUw(10000, 21, true));
}

} // namespace
