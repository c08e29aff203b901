/**
 * @file
 * Decoder unit tests: correctness on injected faults, Astrea/MWPM
 * agreement, abort contracts, union-find validity, and parallel
 * arbitration.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "qec/api/registry.hpp"
#include "qec/decoders/astrea.hpp"
#include "qec/decoders/astrea_g.hpp"
#include "qec/decoders/sparse_mwpm.hpp"
#include "qec/decoders/union_find.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"

namespace qec
{
namespace
{

std::vector<uint32_t>
defectsOf(const DemMechanism &m)
{
    return m.dets;
}

/** Every registered main decoder alone, and every predecoder on
 *  each main decoder and in a `||astrea_g` stack. */
std::vector<std::string>
registryStacks()
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    const std::vector<std::string> mains =
        registry.decoderComponents();
    std::vector<std::string> specs = mains;
    for (const std::string &pre : registry.predecoderComponents()) {
        for (const std::string &main : mains) {
            specs.push_back(pre + "+" + main);
        }
        specs.push_back(pre + "+astrea||astrea_g");
    }
    return specs;
}

TEST(Decoders, EmptySyndromeIsNoOpEverywhere)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (const std::string &name : registryStacks()) {
        auto decoder = build(DecoderSpec::parse(name), ctx.graph(),
                             ctx.paths());
        const DecodeResult result = decoder->decode({}, workspace);
        EXPECT_FALSE(result.aborted) << name;
        EXPECT_EQ(result.predictedObs, 0ull) << name;
    }
}

class SingleFaultTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SingleFaultTest, EverySingleFaultIsDecodedCorrectly)
{
    // A single DEM mechanism is always within the code's correction
    // radius; every decoder must get every one of them right.
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    auto decoder =
        build(DecoderSpec::parse(GetParam()), ctx.graph(), ctx.paths());
    for (const DemMechanism &m : ctx.dem().mechanisms()) {
        const DecodeResult result =
            decoder->decode(defectsOf(m), workspace);
        ASSERT_FALSE(result.aborted)
            << GetParam() << " aborted on single fault";
        ASSERT_EQ(result.predictedObs, m.obsMask)
            << GetParam() << " misdecoded mechanism with "
            << m.dets.size() << " detectors";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, SingleFaultTest,
    ::testing::Values("mwpm", "astrea", "astrea_g", "union_find",
                      "promatch+astrea", "promatch+astrea||astrea_g",
                      "smith+astrea", "smith+astrea||astrea_g"));

TEST(Decoders, MwpmCorrectsTwoArbitraryFaultsAtD5)
{
    // floor((5-1)/2) = 2: any two faults must be correctable by the
    // exact decoder — this doubles as a circuit-distance check.
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    SparseMwpmDecoder decoder(ctx.graph(), ctx.paths());
    const auto &mechanisms = ctx.dem().mechanisms();
    Rng rng(99);
    for (int trial = 0; trial < 1500; ++trial) {
        const uint32_t a = static_cast<uint32_t>(
            rng.nextBelow(mechanisms.size()));
        const uint32_t b = static_cast<uint32_t>(
            rng.nextBelow(mechanisms.size()));
        std::map<uint32_t, int> counts;
        for (uint32_t det : mechanisms[a].dets) {
            ++counts[det];
        }
        for (uint32_t det : mechanisms[b].dets) {
            ++counts[det];
        }
        std::vector<uint32_t> defects;
        for (const auto &[det, c] : counts) {
            if (c % 2) {
                defects.push_back(det);
            }
        }
        const uint64_t obs =
            mechanisms[a].obsMask ^ mechanisms[b].obsMask;
        const DecodeResult result = decoder.decode(defects, workspace);
        ASSERT_FALSE(result.aborted);
        ASSERT_EQ(result.predictedObs, obs)
            << "trial " << trial << " mechanisms " << a << ","
            << b;
    }
}

TEST(Decoders, AstreaEqualsMwpmOnLowHwSyndromes)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    SparseMwpmDecoder mwpm(ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(4242);
    int compared = 0;
    for (int k = 1; k <= 4; ++k) {
        for (int s = 0; s < 200; ++s) {
            const auto sample = sampler.sample(k, rng);
            if (sample.defects.size() > 10) {
                continue;
            }
            const DecodeResult a =
                astrea.decode(sample.defects, workspace);
            const DecodeResult b =
                mwpm.decode(sample.defects, workspace);
            ASSERT_FALSE(a.aborted);
            // Exact engines must agree on the matching weight
            // exactly (integer sums); obs can only differ between
            // equal-weight optima.
            ASSERT_EQ(a.weight, b.weight);
            ++compared;
        }
    }
    EXPECT_GT(compared, 500);
}

TEST(Decoders, PipelineReportsMainDecoderRealTime)
{
    // A pipeline whose main decoder is not real-time is not
    // real-time either, whether or not the predecoder engaged:
    // decode() and decodeBlock() compose through the same rule.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto stack = build(DecoderSpec::parse("smith+mwpm"), ctx.graph(),
                       ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 16);
    DecodeWorkspace workspace;
    DecodeTrace trace;
    std::vector<uint64_t> words(ctx.graph().numDetectors(), 0);
    std::array<DecodeResult, 64> block;
    int engaged = 0;
    for (int s = 0; s < 400; ++s) {
        Rng rng = Rng::forSample(0x7ea1, 1 + s % 16, s);
        const auto sample = sampler.sample(1 + s % 16, rng);
        const DecodeResult result =
            stack->decode(sample.defects, workspace, &trace);
        EXPECT_FALSE(result.realTime) << "sample " << s;
        engaged += trace.predecoderEngaged ? 1 : 0;
        const int lane = s % 64;
        for (uint32_t det : sample.defects) {
            words[det] |= uint64_t{1} << lane;
        }
        if (lane == 63) {
            stack->decodeBlock(words, 64, workspace, block.data());
            for (const DecodeResult &r : block) {
                EXPECT_FALSE(r.realTime) << "block ending " << s;
            }
            std::fill(words.begin(), words.end(), 0);
        }
    }
    EXPECT_GT(engaged, 100);
}

TEST(Decoders, AstreaAbortsAboveMaxHw)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 11; ++det) {
        defects.push_back(det);
    }
    const DecodeResult result = astrea.decode(defects, workspace);
    EXPECT_TRUE(result.aborted);
}

TEST(Decoders, AstreaLatencyGrowsWithHw)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 5);
    Rng rng(7);
    double low_hw_lat = -1, high_hw_lat = -1;
    for (int s = 0; s < 300; ++s) {
        const auto sample = sampler.sample(1, rng);
        if (sample.defects.size() <= 2) {
            low_hw_lat =
                astrea.decode(sample.defects, workspace).latencyNs;
            break;
        }
    }
    for (int s = 0; s < 300; ++s) {
        const auto sample = sampler.sample(5, rng);
        if (sample.defects.size() >= 8 &&
            sample.defects.size() <= 10) {
            high_hw_lat =
                astrea.decode(sample.defects, workspace).latencyNs;
            break;
        }
    }
    ASSERT_GE(low_hw_lat, 0.0);
    ASSERT_GE(high_hw_lat, 0.0);
    EXPECT_GT(high_hw_lat, low_hw_lat);
}

TEST(Decoders, UnionFindCorrectionReproducesSyndrome)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 6);
    Rng rng(31);
    for (int k = 1; k <= 6; ++k) {
        for (int s = 0; s < 100; ++s) {
            const auto sample = sampler.sample(k, rng);
            DecodeTrace trace;
            const DecodeResult result =
                uf.decode(sample.defects, workspace, &trace);
            ASSERT_FALSE(result.aborted);
            // XOR of correction-edge endpoints == syndrome.
            std::set<uint32_t> flipped;
            for (uint32_t eid : trace.correctionEdges) {
                const GraphEdge &edge = ctx.graph().edges()[eid];
                for (uint32_t v : {edge.u, edge.v}) {
                    if (v == kBoundary) {
                        continue;
                    }
                    if (!flipped.insert(v).second) {
                        flipped.erase(v);
                    }
                }
            }
            const std::set<uint32_t> expected(
                sample.defects.begin(), sample.defects.end());
            ASSERT_EQ(flipped, expected)
                << "k=" << k << " sample " << s;
        }
    }
}

TEST(Decoders, AstreaGPrunesAndStaysWithinBudget)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig cfg;
    AstreaGDecoder ag(ctx.graph(), ctx.paths(), cfg);
    ImportanceSampler sampler(ctx.dem(), 8);
    Rng rng(11);
    for (int s = 0; s < 200; ++s) {
        const auto sample = sampler.sample(6, rng);
        DecodeTrace trace;
        const DecodeResult result =
            ag.decode(sample.defects, workspace, &trace);
        ASSERT_FALSE(result.aborted);
        EXPECT_LE(trace.searchStates, cfg.astreaGSearchBudget + 1);
        EXPECT_LE(result.latencyNs, cfg.budgetNs + 1e-9);
    }
}

TEST(Decoders, ParallelPicksLowerWeightSide)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto parallel = build(
        DecoderSpec::parse("promatch+astrea||astrea_g"), ctx.graph(),
        ctx.paths());
    SparseMwpmDecoder mwpm(ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(5);
    for (int s = 0; s < 200; ++s) {
        const auto sample = sampler.sample(3, rng);
        const DecodeResult par =
            parallel->decode(sample.defects, workspace);
        const DecodeResult ideal =
            mwpm.decode(sample.defects, workspace);
        ASSERT_FALSE(par.aborted);
        // The arbitrated weight can never beat the exact optimum.
        EXPECT_GE(par.weight, ideal.weight);
    }
}

TEST(Decoders, FactoryRejectsUnknownName)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    EXPECT_THROW(build(DecoderSpec::parse("no_such_decoder"),
                       ctx.graph(), ctx.paths()),
                 SpecError);
    // Legacy configuration names are not spec strings.
    EXPECT_THROW(build(DecoderSpec::parse("promatch_astrea"),
                       ctx.graph(), ctx.paths()),
                 SpecError);
}

TEST(Decoders, NamesAreWellFormed)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (const std::string &name : registryStacks()) {
        auto decoder = build(DecoderSpec::parse(name), ctx.graph(),
                             ctx.paths());
        EXPECT_FALSE(decoder->name().empty());
    }
}

} // namespace
} // namespace qec
