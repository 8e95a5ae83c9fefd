/**
 * @file
 * Unit tests for the Table 1 / Table 2 parameter definitions.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "arch/parameter.hh"

namespace acdse
{
namespace
{

TEST(Parameter, ThirteenParameters)
{
    EXPECT_EQ(kNumParams, 13u);
    EXPECT_EQ(paramSpecs().size(), 13u);
}

/**
 * Table 1's per-parameter value counts. gtest names each case by the
 * struct's bytes, so the struct has no padding: padding bytes are
 * indeterminate and made the test names differ from build to build.
 */
struct CountCase
{
    Param param;
    std::size_t count;
    int min;
    int max;
    int baseline;
    int unused = 0; //!< fills the tail padding
};
static_assert(std::has_unique_object_representations_v<CountCase>,
              "CountCase must have no padding bytes");

class Table1Counts : public ::testing::TestWithParam<CountCase>
{
};

TEST_P(Table1Counts, MatchesPaper)
{
    const CountCase &c = GetParam();
    const ParamSpec &spec = paramSpec(c.param);
    EXPECT_EQ(spec.count(), c.count) << spec.name;
    EXPECT_EQ(spec.min(), c.min) << spec.name;
    EXPECT_EQ(spec.max(), c.max) << spec.name;
    EXPECT_EQ(spec.baseline, c.baseline) << spec.name;
    EXPECT_TRUE(spec.contains(c.baseline)) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllParams, Table1Counts,
    ::testing::Values(CountCase{Param::Width, 4, 2, 8, 4},
                      CountCase{Param::RobSize, 17, 32, 160, 96},
                      CountCase{Param::IqSize, 10, 8, 80, 32},
                      CountCase{Param::LsqSize, 10, 8, 80, 48},
                      CountCase{Param::RfSize, 16, 40, 160, 96},
                      CountCase{Param::RfReadPorts, 8, 2, 16, 8},
                      CountCase{Param::RfWritePorts, 8, 1, 8, 4},
                      CountCase{Param::BpredSize, 6, 1, 32, 16},
                      CountCase{Param::BtbSize, 3, 1, 4, 4},
                      CountCase{Param::MaxBranches, 4, 8, 32, 16},
                      CountCase{Param::Il1Size, 5, 8, 128, 32},
                      CountCase{Param::Dl1Size, 5, 8, 128, 32},
                      CountCase{Param::L2Size, 5, 256, 4096, 2048}));

TEST(Parameter, ValuesAscending)
{
    for (const auto &spec : paramSpecs()) {
        for (std::size_t i = 1; i < spec.count(); ++i)
            EXPECT_LT(spec.values[i - 1], spec.values[i]) << spec.name;
    }
}

TEST(Parameter, IndexOfRoundTrips)
{
    for (const auto &spec : paramSpecs()) {
        for (std::size_t i = 0; i < spec.count(); ++i)
            EXPECT_EQ(spec.indexOf(spec.values[i]), i) << spec.name;
    }
}

TEST(Parameter, ContainsRejectsIllegal)
{
    EXPECT_FALSE(paramSpec(Param::Width).contains(5));
    EXPECT_FALSE(paramSpec(Param::RobSize).contains(33));
    EXPECT_FALSE(paramSpec(Param::BpredSize).contains(3));
}

TEST(ParameterDeathTest, IndexOfIllegalValuePanics)
{
    EXPECT_DEATH(paramSpec(Param::Width).indexOf(5), "not legal");
}

TEST(Parameter, FunctionalUnitsMatchTable2b)
{
    // "for a four-way machine, we used four integer ALUs, two integer
    //  multipliers, two floating point ALUs, and one floating point
    //  multiplier/divider" (Section 3.1).
    const FunctionalUnitCounts four = functionalUnitsForWidth(4);
    EXPECT_EQ(four.intAlu, 4);
    EXPECT_EQ(four.intMul, 2);
    EXPECT_EQ(four.fpAlu, 2);
    EXPECT_EQ(four.fpMulDiv, 1);
}

TEST(Parameter, FunctionalUnitsScaleWithWidth)
{
    for (int width : paramSpec(Param::Width).values) {
        const FunctionalUnitCounts fu = functionalUnitsForWidth(width);
        EXPECT_EQ(fu.intAlu, width);
        EXPECT_GE(fu.intMul, 1);
        EXPECT_GE(fu.fpAlu, 1);
        EXPECT_GE(fu.fpMulDiv, 1);
        EXPECT_LE(fu.fpMulDiv, fu.fpAlu);
    }
}

TEST(Parameter, FixedParamsSane)
{
    const FixedParams &fp = fixedParams();
    EXPECT_GT(fp.memLatency, 50);
    EXPECT_GE(fp.frontEndStages, 2);
    EXPECT_GT(fp.fpDivLatency, fp.fpMulLatency);
    EXPECT_EQ(fp.archRegs, 32);
}

} // namespace
} // namespace acdse
