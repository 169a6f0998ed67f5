/**
 * @file
 * Tests of the model zoo configurations.
 */

#include <gtest/gtest.h>

#include "model/vit_config.h"

namespace vitcod::model {
namespace {

TEST(ModelZoo, DeiTShapes)
{
    const auto tiny = deitTiny();
    const auto small = deitSmall();
    const auto base = deitBase();
    for (const auto *m : {&tiny, &small, &base}) {
        ASSERT_EQ(m->stages.size(), 1u);
        EXPECT_EQ(m->stages[0].layers, 12u);
        EXPECT_EQ(m->stages[0].tokens, 197u);
        EXPECT_EQ(m->stages[0].headDim, 64u);
        EXPECT_EQ(m->stages[0].mlpRatio, 4u);
    }
    EXPECT_EQ(tiny.stages[0].heads, 3u);
    EXPECT_EQ(small.stages[0].heads, 6u);
    EXPECT_EQ(base.stages[0].heads, 12u);
    EXPECT_EQ(base.stages[0].embedDim, 768u);
}

TEST(ModelZoo, LeViTPyramid)
{
    const auto m = levit128();
    ASSERT_EQ(m.stages.size(), 3u);
    EXPECT_EQ(m.stages[0].tokens, 196u);
    EXPECT_EQ(m.stages[1].tokens, 49u);
    EXPECT_EQ(m.stages[2].tokens, 16u);
    EXPECT_EQ(m.stages[0].heads, 4u);
    EXPECT_EQ(m.stages[2].heads, 12u);
    EXPECT_EQ(m.stages[0].mlpRatio, 2u);
    EXPECT_GT(m.stemFlops, 0.0);
}

TEST(ModelZoo, NominalSparsityOperatingPoints)
{
    // Paper Sec. VI-C: DeiT holds 90%, LeViT holds 80%.
    EXPECT_DOUBLE_EQ(deitBase().nominalSparsity, 0.90);
    EXPECT_DOUBLE_EQ(deitTiny().nominalSparsity, 0.90);
    EXPECT_DOUBLE_EQ(levit128().nominalSparsity, 0.80);
    EXPECT_DOUBLE_EQ(levit256().nominalSparsity, 0.80);
}

TEST(ModelZoo, StridedTransformerIsPoseTask)
{
    const auto m = stridedTransformer();
    EXPECT_EQ(m.task, Task::PoseEstimation);
    EXPECT_EQ(m.stages[0].tokens, 351u);
    EXPECT_EQ(m.totalLayers(), 6u);
}

TEST(ModelZoo, BertSequenceLengthParameterized)
{
    const auto m = bertBase(384);
    EXPECT_EQ(m.task, Task::NlpGlue);
    EXPECT_EQ(m.stages[0].tokens, 384u);
    EXPECT_EQ(m.stages[0].heads, 12u);
    EXPECT_EQ(m.totalLayers(), 12u);
}

TEST(ModelZoo, TotalLayersAndHeads)
{
    EXPECT_EQ(deitBase().totalLayers(), 12u);
    EXPECT_EQ(deitBase().totalHeads(), 144u);
    EXPECT_EQ(levit128().totalLayers(), 12u);
    EXPECT_EQ(levit128().totalHeads(), 4u * (4 + 8 + 12));
}

TEST(ModelZoo, CollectionsHaveExpectedMembers)
{
    EXPECT_EQ(coreSixModels().size(), 6u);
    const auto seven = allSevenModels();
    EXPECT_EQ(seven.size(), 7u);
    EXPECT_EQ(seven.front().name, "StridedTrans.");
}

TEST(ModelZoo, LookupByName)
{
    EXPECT_EQ(modelByName("DeiT-Base").stages[0].embedDim, 768u);
    EXPECT_EQ(modelByName("LeViT-192").stages[0].heads, 3u);
    EXPECT_EQ(modelByName("BERT-Base-n128").stages[0].tokens, 128u);
}

TEST(ModelZooDeath, MalformedBertLengthIsAnUnknownName)
{
    for (const char *name :
         {"BERT-Base-n", "BERT-Base-nabc", "BERT-Base-n12x",
          "BERT-Base-n-1", "BERT-Base-n0"})
        EXPECT_DEATH(modelByName(name), "unknown model name") << name;
}

TEST(ModelZoo, BaselineQualityPublishedValues)
{
    EXPECT_NEAR(deitTiny().baselineQuality, 72.2, 1e-9);
    EXPECT_NEAR(deitBase().baselineQuality, 81.8, 1e-9);
    EXPECT_NEAR(levit256().baselineQuality, 81.6, 1e-9);
}

} // namespace
} // namespace vitcod::model
