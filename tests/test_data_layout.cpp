/**
 * @file
 * Tests for the cache-compact decode-core data layout:
 *
 *  - CSR adjacency (and the pair-edge half-edge CSR, whose records
 *    copy each edge's weight and 8-bit observable mask) match a
 *    reference adjacency reconstructed from the edge list, on
 *    random DEMs and on surface-code graphs;
 *  - the SoA hot fields (weight/obs/endpoints) are bit-copies of
 *    the GraphEdge AoS;
 *  - readPairCells returns bit-copies of direct PathTable reads, on
 *    a dense table and (grown by the oracle) on a DeferPairs one;
 *  - PathTable symmetry invariants: dist(a,b) == dist(b,a) (up to
 *    float accumulation order), symmetric reachability, zero
 *    diagonal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

/** Random connected-ish graphlike DEM with boundary edges. */
GraphlikeDem
randomDem(Rng &rng, uint32_t num_detectors)
{
    GraphlikeDem dem;
    dem.numDetectors = num_detectors;
    dem.numObservables = 2;
    const auto random_prob = [&] {
        return 0.005 + 0.4 * rng.nextDouble();
    };
    // A spine so most nodes are reachable, plus random chords and
    // boundary edges (occasionally duplicated, exercising the
    // parallel-edge merge).
    for (uint32_t v = 1; v < num_detectors; ++v) {
        dem.edges.push_back(
            {v - 1, v, rng.next64() & 3, random_prob()});
    }
    const uint32_t chords = num_detectors * 2;
    for (uint32_t c = 0; c < chords; ++c) {
        const uint32_t a = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        const uint32_t b = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        if (a == b) {
            continue;
        }
        dem.edges.push_back(
            {std::min(a, b), std::max(a, b), rng.next64() & 3,
             random_prob()});
    }
    for (uint32_t v = 0; v < num_detectors; v += 3) {
        dem.edges.push_back(
            {v, kBoundary, rng.next64() & 1, random_prob()});
    }
    return dem;
}

/** Reference adjacency built exactly like the historical
 *  vector-of-vectors: iterate edges in id order, append to both
 *  endpoint rows (boundary edges only to u). */
std::vector<std::vector<uint32_t>>
referenceAdjacency(const DecodingGraph &graph)
{
    std::vector<std::vector<uint32_t>> adjacency(
        graph.numDetectors());
    for (const GraphEdge &edge : graph.edges()) {
        adjacency[edge.u].push_back(edge.id);
        if (edge.v != kBoundary) {
            adjacency[edge.v].push_back(edge.id);
        }
    }
    return adjacency;
}

void
expectCsrMatchesReference(const DecodingGraph &graph)
{
    const auto reference = referenceAdjacency(graph);
    for (uint32_t det = 0; det < graph.numDetectors(); ++det) {
        const auto row = graph.adjacentEdges(det);
        ASSERT_EQ(row.size(), reference[det].size()) << det;
        for (size_t o = 0; o < row.size(); ++o) {
            EXPECT_EQ(row[o], reference[det][o])
                << det << "," << o;
        }
        // The pair CSR is the same row with boundary edges
        // filtered, preserving order, with matching neighbors and
        // the weight and (8-bit) observable mask copied into the
        // record.
        size_t p = 0;
        for (uint32_t eid : row) {
            const GraphEdge &edge = graph.edges()[eid];
            if (edge.v == kBoundary) {
                continue;
            }
            ASSERT_LT(p, graph.pairNeighbors(det).size());
            const PairHalfEdge half = graph.pairNeighbors(det)[p];
            EXPECT_EQ(half.edgeId, eid);
            EXPECT_EQ(half.neighbor,
                      edge.u == det ? edge.v : edge.u);
            EXPECT_EQ(half.weight, edge.weight);
            EXPECT_EQ(half.weight, graph.edgeWeight(eid));
            EXPECT_EQ(half.obs, edge.obsMask & 0xFF);
            EXPECT_LE(edge.weight, graph.maxEdgeWeight());
            ++p;
        }
        EXPECT_EQ(p, graph.pairNeighbors(det).size()) << det;
    }
}

TEST(DataLayout, CsrAdjacencyMatchesReferenceOnRandomDems)
{
    Rng rng(0xC5A);
    for (int round = 0; round < 8; ++round) {
        const uint32_t n = 8 + static_cast<uint32_t>(
                                   rng.next64() % 40);
        const DecodingGraph graph =
            DecodingGraph::fromDem(randomDem(rng, n));
        expectCsrMatchesReference(graph);
    }
}

TEST(DataLayout, CsrAdjacencyMatchesReferenceOnSurfaceGraph)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    expectCsrMatchesReference(ctx.graph());
}

TEST(DataLayout, SoaHotFieldsAreBitCopiesOfAos)
{
    Rng rng(0x50A);
    const DecodingGraph graph =
        DecodingGraph::fromDem(randomDem(rng, 32));
    for (const GraphEdge &edge : graph.edges()) {
        EXPECT_EQ(graph.edgeWeight(edge.id), edge.weight);
        EXPECT_EQ(graph.edgeObsMask(edge.id), edge.obsMask);
        EXPECT_EQ(graph.edgeU(edge.id), edge.u);
        EXPECT_EQ(graph.edgeV(edge.id), edge.v);
    }
}

TEST(DataLayout, ReadPairCellsIsBitExact)
{
    Rng rng(0xD15);
    const DecodingGraph graph =
        DecodingGraph::fromDem(randomDem(rng, 40));
    const PathTable dense(graph);
    const PathTable deferred(graph, PathTable::DeferPairs{});

    DistanceOracle oracle;
    for (int round = 0; round < 6; ++round) {
        // Random sorted defect subset.
        std::vector<uint32_t> defects;
        for (uint32_t det = 0; det < graph.numDetectors();
             ++det) {
            if (rng.nextDouble() < 0.3) {
                defects.push_back(det);
            }
        }
        const std::vector<Weight> bounds(
            defects.size(), std::numeric_limits<Weight>::max());
        std::vector<PathCell> row(defects.size());
        for (const PathTable *paths : {&dense, &deferred}) {
            for (uint32_t src : defects) {
                readPairCells(*paths, oracle, src, defects, bounds,
                              row.data());
                for (size_t k = 0; k < defects.size(); ++k) {
                    // Bit-copies: compare with ==.
                    const PathCell &want = dense.cell(src, defects[k]);
                    EXPECT_EQ(row[k].dist, want.dist);
                    EXPECT_EQ(row[k].obs, want.obs);
                    EXPECT_EQ(row[k].hops, want.hops);
                }
            }
        }
    }
}

void
expectPathTableSymmetry(const DecodingGraph &graph)
{
    const PathTable paths(graph);
    const uint32_t n = paths.numDetectors();
    for (uint32_t a = 0; a < n; ++a) {
        // Zero diagonal.
        EXPECT_EQ(paths.dist(a, a), 0u);
        EXPECT_EQ(paths.pathHops(a, a), 0);
        EXPECT_EQ(paths.pathObs(a, a), 0ull);
        for (uint32_t b = a + 1; b < n; ++b) {
            // Integer sums: distances (and reachability, kNoPath)
            // are exactly symmetric.
            EXPECT_EQ(paths.dist(a, b), paths.dist(b, a))
                << a << "," << b;
        }
    }
}

TEST(DataLayout, PathTableSymmetryOnRandomDems)
{
    Rng rng(0x5E7);
    for (int round = 0; round < 4; ++round) {
        const uint32_t n = 8 + static_cast<uint32_t>(
                                   rng.next64() % 24);
        expectPathTableSymmetry(
            DecodingGraph::fromDem(randomDem(rng, n)));
    }
}

TEST(DataLayout, PathTableSymmetryOnSurfaceGraph)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    expectPathTableSymmetry(ctx.graph());
}

} // namespace
} // namespace qec
