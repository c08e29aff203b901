/**
 * @file
 * Tests for the detector error model: enumeration, merging,
 * graphlike decomposition, and statistical agreement with the
 * Monte-Carlo simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "qec/dem/decompose.hpp"
#include "qec/dem/dem.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/sim/frame_simulator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

namespace qec
{
namespace
{

TEST(Dem, XorProbability)
{
    EXPECT_DOUBLE_EQ(xorProbability(0.0, 0.3), 0.3);
    EXPECT_DOUBLE_EQ(xorProbability(0.5, 0.5), 0.5);
    EXPECT_NEAR(xorProbability(0.1, 0.2), 0.1 * 0.8 + 0.2 * 0.9,
                1e-12);
}

TEST(Dem, MergesIdenticalMechanisms)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1, 2}, 0, 0.1);
    dem.addMechanism({2, 1}, 0, 0.1); // Same set, unsorted.
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    EXPECT_NEAR(dem.mechanisms()[0].prob, xorProbability(0.1, 0.1),
                1e-12);
}

TEST(Dem, KeepsDistinctObsMasksSeparate)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1}, 0, 0.1);
    dem.addMechanism({1}, 1, 0.1);
    EXPECT_EQ(dem.mechanisms().size(), 2u);
}

TEST(Dem, CancelsRepeatedDetectors)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1, 1, 2}, 0, 0.1);
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    EXPECT_EQ(dem.mechanisms()[0].dets,
              (std::vector<uint32_t>{2}));
}

TEST(Dem, DropsInvisibleMechanisms)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({}, 0, 0.1);
    dem.addMechanism({3, 3}, 0, 0.1);
    EXPECT_TRUE(dem.mechanisms().empty());
}

TEST(Dem, DecodingGraphRejectsEdgeProbabilityOfHalfOrMore)
{
    // addMechanism accepts these probabilities; the graph build must
    // throw, not abort, since DEMs can come from circuit text.
    for (double p : {0.5, 0.7}) {
        DetectorErrorModel dem(2, 1);
        dem.addMechanism({0, 1}, 0, p);
        const GraphlikeDem graphlike = decomposeToGraphlike(dem);
        ASSERT_EQ(graphlike.edges.size(), 1u) << p;
        EXPECT_THROW(DecodingGraph::fromDem(graphlike), DemError)
            << p;
    }
    // addMechanism refuses NaN; a hand-built graphlike model with a
    // NaN edge must still be refused by the graph build.
    GraphlikeDem graphlike;
    graphlike.numDetectors = 2;
    graphlike.numObservables = 1;
    graphlike.edges.push_back({0, 1, 0, std::nan("")});
    EXPECT_THROW(DecodingGraph::fromDem(graphlike), DemError);
}

TEST(Dem, RejectsMechanismProbabilityNanOrAtLeastOne)
{
    // Imported models cross the trust boundary: a probability the
    // sampler cannot use must throw here, not abort later.
    for (double p : {std::nan(""), 1.0, 1.5,
                     std::numeric_limits<double>::infinity()}) {
        DetectorErrorModel dem(2, 1);
        EXPECT_THROW(dem.addMechanism({0, 1}, 0, p), DemError) << p;
        EXPECT_TRUE(dem.mechanisms().empty()) << p;
    }
    DetectorErrorModel dem(2, 1);
    dem.addMechanism({0, 1}, 0, 0.999);
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    EXPECT_EQ(dem.mechanisms()[0].prob, 0.999);
}

TEST(Dem, PathTableRejectsMoreThanEightObservables)
{
    GraphlikeDem dem;
    dem.numDetectors = 2;
    dem.numObservables = 9;
    dem.edges.push_back({0, 1, uint64_t{1} << 8, 0.01});
    dem.edges.push_back({0, kBoundary, 0, 0.01});
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    EXPECT_THROW(PathTable{graph}, DemError);
    EXPECT_THROW((PathTable{graph, PathTable::DeferPairs{}}),
                 DemError);
    dem.numObservables = 8;
    dem.edges[0].obsMask = uint64_t{1} << 7;
    const DecodingGraph eight = DecodingGraph::fromDem(dem);
    EXPECT_EQ(PathTable{eight}.pathObs(0, 1), uint64_t{1} << 7);
}

TEST(Dem, DecodingGraphRejectsPathsThatOverflowDistances)
{
    // p = 1e-300 weighs ~690.8 nat = 44,209 units: a path of 100,000
    // such edges would not fit a 32-bit distance, one of 1,000 does.
    GraphlikeDem dem;
    dem.numDetectors = 100000;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 1e-300});
    EXPECT_THROW(DecodingGraph::fromDem(dem), DemError);
    dem.numDetectors = 1000;
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    EXPECT_EQ(graph.maxEdgeWeight(),
              std::llround(std::log(1e300) / kWeightUnit));
}

TEST(Dem, DecodingGraphRejectsTwoToTheTwentyFourDetectors)
{
    // Path labels count hops in 24 bits. The check runs before any
    // per-detector array is sized, so these cost no memory.
    GraphlikeDem dem;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 0.01});
    for (const uint32_t n : {uint32_t{1} << 24, (uint32_t{1} << 24) + 1,
                             ~uint32_t{0}}) {
        dem.numDetectors = n;
        EXPECT_THROW(DecodingGraph::fromDem(dem), DemError) << n;
    }
}

TEST(Decompose, PassesThroughGraphlikeMechanisms)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0}, 1, 0.01);
    dem.addMechanism({1, 2}, 0, 0.02);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.edges.size(), 2u);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 0u);
}

TEST(Decompose, SplitsCompositeIntoAtomicBlocks)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2, 3}, 1, 0.01);
    // Composite = union of the two atomics, obs consistent.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 0u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
    // Probability routed onto both blocks.
    std::map<std::pair<uint32_t, uint32_t>, double> probs;
    for (const DemEdge &edge : graphlike.edges) {
        probs[{edge.u, edge.v}] += edge.prob;
    }
    EXPECT_NEAR((probs[{0, 1}]), xorProbability(0.01, 0.005), 1e-12);
    EXPECT_NEAR((probs[{2, 3}]), xorProbability(0.01, 0.005), 1e-12);
}

TEST(Decompose, UsesBoundaryBlocksForOddComposites)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2}, 0, 0.01); // Boundary atomic.
    dem.addMechanism({0, 1, 2}, 0, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
}

TEST(Decompose, RejectsMechanismWithMoreThanSixteenDetectors)
{
    // The split search indexes detectors by bit in a mask; a
    // composite past 16 detectors must throw, not abort.
    DetectorErrorModel dem(20, 1);
    std::vector<uint32_t> dets;
    for (uint32_t d = 0; d < 17; ++d) {
        dets.push_back(d);
    }
    dem.addMechanism(dets, 0, 0.01);
    EXPECT_THROW(decomposeToGraphlike(dem), DemError);

    DetectorErrorModel sixteen(20, 1);
    dets.pop_back();
    sixteen.addMechanism(dets, 0, 0.01);
    const GraphlikeDem graphlike = decomposeToGraphlike(sixteen);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 1u);
}

class SurfaceDemTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SurfaceDemTest, SurfaceCodeDemIsCleanlyGraphlike)
{
    const int d = GetParam();
    SurfaceCodeLayout layout(d);
    const MemoryExperiment exp =
        generateMemoryZ(layout, d, NoiseParams::uniform(1e-3));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);
    // At least timelike + boundary edges worth of distinct symptoms.
    EXPECT_GT(dem.mechanisms().size(),
              static_cast<size_t>(dem.numDetectors()));

    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    // The standard CX schedule makes every single fault graphlike
    // (mid-round cancellations): no composite mechanisms at all.
    // This is the property that makes the code matchable.
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 0u);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 0u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
    for (const DemEdge &edge : graphlike.edges) {
        EXPECT_LT(edge.u, dem.numDetectors());
        EXPECT_TRUE(edge.v == kBoundary ||
                    edge.v < dem.numDetectors());
        EXPECT_GT(edge.prob, 0.0);
        EXPECT_LT(edge.prob, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(SmallDistances, SurfaceDemTest,
                         ::testing::Values(3, 5));

TEST(SurfaceDem, PredictsSimulatorDetectorRates)
{
    // Marginal per-detector flip rate from the DEM (xor-combination
    // of incident mechanism probabilities) must match Monte Carlo.
    SurfaceCodeLayout layout(3);
    const double p = 0.01;
    const MemoryExperiment exp =
        generateMemoryZ(layout, 3, NoiseParams::uniform(p));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);

    std::vector<double> predicted(exp.circuit.numDetectors(), 0.0);
    for (const DemMechanism &m : dem.mechanisms()) {
        for (uint32_t det : m.dets) {
            predicted[det] = xorProbability(predicted[det], m.prob);
        }
    }

    FrameSimulator sim(exp.circuit);
    Rng rng(2024);
    BatchResult out;
    const int batches = 3000;
    std::vector<uint64_t> fires(exp.circuit.numDetectors(), 0);
    for (int b = 0; b < batches; ++b) {
        sim.sampleBatch(rng, out);
        for (size_t det = 0; det < out.detectors.size(); ++det) {
            fires[det] += std::popcount(out.detectors[det]);
        }
    }
    const double shots = 64.0 * batches;
    for (size_t det = 0; det < fires.size(); ++det) {
        const double observed = fires[det] / shots;
        const double sigma = std::sqrt(
            std::max(predicted[det], 1e-9) / shots);
        EXPECT_NEAR(observed, predicted[det],
                    5 * sigma + 0.2 * predicted[det])
            << "detector " << det;
    }
}

TEST(SurfaceDem, PredictsObservableFlipRate)
{
    // The total observable-flip probability (uncorrected) from the
    // DEM must match the simulator within statistics.
    SurfaceCodeLayout layout(3);
    const double p = 0.02;
    const MemoryExperiment exp =
        generateMemoryZ(layout, 3, NoiseParams::uniform(p));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);

    double predicted = 0.0;
    for (const DemMechanism &m : dem.mechanisms()) {
        if (m.obsMask & 1) {
            predicted = xorProbability(predicted, m.prob);
        }
    }

    FrameSimulator sim(exp.circuit);
    Rng rng(555);
    const uint64_t shots = 400000;
    const uint64_t flips = sim.countObservableFlips(rng, shots);
    const double observed =
        static_cast<double>(flips) / static_cast<double>(shots);
    const double sigma = std::sqrt(predicted / shots);
    EXPECT_NEAR(observed, predicted, 6 * sigma + 0.05 * predicted);
}

} // namespace
} // namespace qec
