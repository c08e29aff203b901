/**
 * @file
 * Edge-case and failure-path tests: decomposition fallbacks, text
 * parser rejection, abort propagation in composed decoders, and
 * boundary-heavy union-find cases.
 */

#include <gtest/gtest.h>

#include <string>

#include "qec/api/registry.hpp"
#include "qec/circuit/circuit.hpp"
#include "qec/decoders/astrea.hpp"
#include "qec/decoders/parallel.hpp"
#include "qec/decoders/union_find.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/dem/decompose.hpp"
#include "qec/harness/context.hpp"

namespace qec
{
namespace
{

TEST(DecomposeEdge, ForcedPairingWhenNoAtomicSplitExists)
{
    DetectorErrorModel dem(8, 1);
    // A 4-detector composite with *no* graphlike mechanisms to
    // decompose into: the decomposition must fall back to forced
    // consecutive pairing and say so.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.01);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 1u);
    EXPECT_EQ(graphlike.edges.size(), 2u);
}

TEST(DecomposeEdge, ObsRelaxedWhenMasksCannotMatch)
{
    DetectorErrorModel dem(8, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2, 3}, 0, 0.01);
    // Composite whose obs mask (1) cannot be assembled from the
    // obs-0 atomics: accepted with the obsRelaxed counter bumped.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
}

/** circuitFromText must throw CircuitTextError naming `line`, with
 *  `fragment` in the message. */
void
expectTextError(const std::string &text, size_t line,
                const std::string &fragment)
{
    try {
        circuitFromText(text);
        ADD_FAILURE() << "accepted: " << text;
    } catch (const CircuitTextError &error) {
        EXPECT_EQ(error.line(), line) << text;
        EXPECT_NE(std::string(error.what()).find(fragment),
                  std::string::npos)
            << error.what();
    }
}

TEST(CircuitTextEdge, RejectsUnknownInstruction)
{
    EXPECT_THROW(circuitFromText("QUBITS 2\nFROB 0 1\n"),
                 CircuitTextError);
    expectTextError("QUBITS 2\n\nFROB 0 1\n", 3,
                    "unknown instruction");
}

TEST(CircuitTextEdge, RejectsMissingQubitsHeader)
{
    EXPECT_THROW(circuitFromText("H 0\n"), CircuitTextError);
    expectTextError("# comment\nH 0\n", 2, "QUBITS");
    expectTextError("QUBITS\n", 1, "QUBITS");
    expectTextError("QUBITS 2\nQUBITS 3\n", 2, "QUBITS");
}

TEST(CircuitTextEdge, RejectsNonNumericTarget)
{
    // Used to parse as "H 0", silently dropping "x 1 2".
    expectTextError("QUBITS 3\nH 0 x 1 2\n", 2, "'x'");
    expectTextError("QUBITS 3\nH 0 -1\n", 2, "'-1'");
    expectTextError("QUBITS 3\nTICK 1\n", 2, "TICK");
}

TEST(CircuitTextEdge, RejectsUnparseableArgument)
{
    expectTextError("QUBITS 1\nM(abc) 0\n", 2, "'abc'");
    expectTextError("QUBITS 1\nX_ERROR(1.5) 0\n", 2, "[0, 1]");
    expectTextError("QUBITS 1\nM(0.1 0\n", 2, "unterminated");
    expectTextError("QUBITS 1\nH(0.1) 0\n", 2, "no argument");
    expectTextError("QUBITS 1\nM 0\nOBSERVABLE(64) 0\n", 3,
                    "[0, 64)");
}

TEST(CircuitTextEdge, RejectsOddPairTargetCount)
{
    expectTextError("QUBITS 3\nCX 0 1 2\n", 2, "even");
    expectTextError("QUBITS 3\nDEPOLARIZE2(0.1) 0\n", 2, "even");
}

TEST(CircuitTextEdge, RejectsOutOfRangeQubit)
{
    expectTextError("QUBITS 2\nR 0 2\n", 2, "qubit 2");
    expectTextError("QUBITS 2\nM 5\n", 2, "qubit 5");
}

TEST(CircuitTextEdge, RejectsForwardRecordReference)
{
    expectTextError("QUBITS 1\nDETECTOR 0\nM 0\n", 2,
                    "measurement 0");
    expectTextError("QUBITS 1\nM 0\nOBSERVABLE(0) 0 1\n", 3,
                    "measurement 1");
}

TEST(ParallelEdge, BothSidesAbortingAborts)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig latency;
    // Two Astreas: both abort on HW > 10.
    ParallelDecoder parallel(
        ctx.graph(), ctx.paths(),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        latency);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 12; ++det) {
        defects.push_back(det);
    }
    const DecodeResult result = parallel.decode(defects, workspace);
    EXPECT_TRUE(result.aborted);
}

TEST(ParallelEdge, SurvivingSideWins)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig latency;
    ParallelDecoder parallel(
        ctx.graph(), ctx.paths(),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        build(DecoderSpec::parse("astrea_g"), ctx.graph(), ctx.paths(),
              latency),
        latency);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 12; ++det) {
        defects.push_back(det);
    }
    // Astrea aborts (HW 12 > 10); Astrea-G must carry the result.
    DecodeTrace trace;
    const DecodeResult result =
        parallel.decode(defects, workspace, &trace);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(trace.parallelWinner, 1);
    ASSERT_EQ(trace.children.size(), 2u);
}

TEST(UnionFindEdge, LoneBoundaryAdjacentDefect)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    // Find a detector with a boundary edge and decode it alone.
    int det = -1;
    for (uint32_t d = 0; d < ctx.graph().numDetectors(); ++d) {
        if (ctx.graph().boundaryEdge(d) >= 0) {
            det = static_cast<int>(d);
            break;
        }
    }
    ASSERT_GE(det, 0);
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    const std::vector<uint32_t> defects{
        static_cast<uint32_t>(det)};
    DecodeTrace trace;
    const DecodeResult result = uf.decode(defects, workspace, &trace);
    EXPECT_FALSE(result.aborted);
    // The correction must be exactly one boundary-reaching path.
    EXPECT_GE(trace.correctionEdges.size(), 1u);
}

TEST(UnionFindEdge, AllDetectorsFlippedStillResolves)
{
    // Pathological syndrome: every detector flipped. Union-find
    // must still produce a valid correction (one big cluster
    // touching the boundary).
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < ctx.graph().numDetectors();
         ++det) {
        defects.push_back(det);
    }
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    const DecodeResult result = uf.decode(defects, workspace);
    EXPECT_FALSE(result.aborted);
}

TEST(AstreaEdge, ExactlyTenDefectsIsStillExact)
{
    DecodeWorkspace workspace;
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    // Take the first 10 detectors of layer 0 as a syndrome: legal
    // input, boundary matches available for all.
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 10; ++det) {
        defects.push_back(det);
    }
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    const DecodeResult result = astrea.decode(defects, workspace);
    EXPECT_FALSE(result.aborted);
    EXPECT_GT(result.weight, 0.0);
}

} // namespace
} // namespace qec
