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
 *  - DistanceView gathers are bit-copies of direct PathTable reads,
 *    and subsetMap resolves residual subsets without regathering;
 *  - PathTable symmetry invariants: dist(a,b) == dist(b,a) (up to
 *    float accumulation order), symmetric reachability, zero
 *    diagonal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_view.hpp"
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

TEST(DataLayout, DistanceViewGatherIsBitExact)
{
    Rng rng(0xD15);
    const DecodingGraph graph =
        DecodingGraph::fromDem(randomDem(rng, 40));
    const PathTable paths(graph);

    DistanceView view;
    for (int round = 0; round < 6; ++round) {
        // Random sorted defect subset.
        std::vector<uint32_t> defects;
        for (uint32_t det = 0; det < graph.numDetectors();
             ++det) {
            if (rng.nextDouble() < 0.3) {
                defects.push_back(det);
            }
        }
        view.gather(paths, defects);
        ASSERT_EQ(view.size(),
                  static_cast<int>(defects.size()));
        for (size_t i = 0; i < defects.size(); ++i) {
            // Bit-copies: compare with ==.
            EXPECT_EQ(view.distToBoundary(i),
                      paths.distToBoundary(defects[i]));
            EXPECT_EQ(view.boundaryObs(i),
                      paths.boundaryObs(defects[i]));
            EXPECT_EQ(view.boundaryHops(i),
                      paths.boundaryHops(defects[i]));
            for (size_t j = 0; j < defects.size(); ++j) {
                EXPECT_EQ(view.dist(i, j),
                          paths.dist(defects[i], defects[j]));
                EXPECT_EQ(view.obs(i, j),
                          paths.pathObs(defects[i], defects[j]));
                EXPECT_EQ(
                    view.hops(i, j),
                    paths.pathHops(defects[i], defects[j]));
            }
        }
    }
}

TEST(DataLayout, DistanceViewSubsetMapResolvesResiduals)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    const PathTable &paths = ctx.paths();
    std::vector<uint32_t> full = {1, 4, 7, 9, 13, 20, 31};
    DistanceView view;
    view.gather(paths, full);

    // Every subset resolves without regathering; mapped cells read
    // back the direct PathTable values.
    std::vector<int32_t> map;
    std::vector<uint32_t> residual = {4, 9, 31};
    ASSERT_TRUE(view.subsetMap(paths, residual, map));
    ASSERT_EQ(map.size(), residual.size());
    for (size_t i = 0; i < residual.size(); ++i) {
        EXPECT_EQ(view.det(map[i]), residual[i]);
        for (size_t j = 0; j < residual.size(); ++j) {
            EXPECT_EQ(view.dist(map[i], map[j]),
                      paths.dist(residual[i], residual[j]));
        }
    }

    // A detector outside the gathered set must force a regather.
    std::vector<uint32_t> foreign = {4, 9, 32};
    EXPECT_FALSE(view.subsetMap(paths, foreign, map));

    // Exact cover is the identity map.
    ASSERT_TRUE(view.subsetMap(paths, full, map));
    for (size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(map[i], static_cast<int32_t>(i));
    }

    // covers() distinguishes exact matches from subsets.
    EXPECT_TRUE(view.covers(paths, full));
    EXPECT_FALSE(view.covers(paths, residual));
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
