/**
 * @file
 * Tests for the decoding graph and path tables, including a
 * Floyd-Warshall cross-check of the Dijkstra all-pairs distances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"

namespace qec
{
namespace
{

/** log((1-p)/p) in kWeightUnit, rounded: the quantized weight. */
Weight
units(double p)
{
    return std::llround(std::log((1.0 - p) / p) / kWeightUnit);
}

GraphlikeDem
smallDem()
{
    // 0 -(0.1)- 1 -(0.1)- 2 ; 0 -(0.01)- B ; 2 -(0.2)- B
    // plus a heavy direct 0-2 edge that shortest paths must avoid.
    GraphlikeDem dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 0.1});
    dem.edges.push_back({1, 2, 0, 0.1});
    dem.edges.push_back({0, 2, 1, 0.001});
    dem.edges.push_back({0, kBoundary, 1, 0.01});
    dem.edges.push_back({2, kBoundary, 0, 0.2});
    return dem;
}

TEST(DecodingGraph, BuildsAdjacency)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    EXPECT_EQ(graph.numDetectors(), 3u);
    EXPECT_EQ(graph.edges().size(), 5u);
    EXPECT_EQ(graph.adjacentEdges(1).size(), 2u);
    EXPECT_GE(graph.boundaryEdge(0), 0);
    EXPECT_EQ(graph.boundaryEdge(1), -1);
    EXPECT_GE(graph.edgeBetween(0, 1), 0);
    EXPECT_EQ(graph.edgeBetween(1, 0), graph.edgeBetween(0, 1));
}

TEST(DecodingGraph, WeightIsLogLikelihoodRatio)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const int eid = graph.edgeBetween(0, 1);
    ASSERT_GE(eid, 0);
    EXPECT_EQ(graph.edges()[eid].weight, units(0.1));
    EXPECT_EQ(graph.edges()[eid].weight, 141); // 2.1972 nat * 64
    EXPECT_EQ(graph.edgeWeight(eid), graph.edges()[eid].weight);
}

TEST(DecodingGraph, MergesParallelEdgesKeepingDominantObs)
{
    GraphlikeDem dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 0.2});
    dem.edges.push_back({0, 1, 1, 0.01});
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    ASSERT_EQ(graph.edges().size(), 1u);
    EXPECT_EQ(graph.edges()[0].obsMask, 0ull);
    EXPECT_NEAR(graph.edges()[0].prob,
                0.2 * 0.99 + 0.01 * 0.8, 1e-12);
    EXPECT_EQ(graph.obsConflicts(), 1u);
}

TEST(PathTable, LabelKeyOrderIsLexicographicDistHopsObs)
{
    // The packed key must order labels exactly as the tuple
    // (dist, hops, obs) over every field's full range.
    const uint32_t dists[] = {0, 1, kNoPath - 1, kNoPath};
    const uint32_t hops[] = {0, 1, 255, 256, (1u << 24) - 1};
    struct Fields
    {
        uint32_t dist, hops;
        uint8_t obs;
    };
    std::vector<Fields> fields;
    std::vector<PathLabel> labels;
    for (const uint32_t d : dists) {
        for (const uint32_t h : hops) {
            for (int o = 0; o < 256; ++o) {
                const auto obs = static_cast<uint8_t>(o);
                fields.push_back({d, h, obs});
                labels.push_back(PathLabel::of(d, h, obs));
                const PathLabel &label = labels.back();
                ASSERT_EQ(label.dist(), d);
                ASSERT_EQ(label.hops(), h);
                ASSERT_EQ(label.obs(), obs);
            }
        }
    }
    size_t mismatches = 0;
    for (size_t a = 0; a < labels.size(); ++a) {
        for (size_t b = 0; b < labels.size(); ++b) {
            const bool tuple =
                std::tie(fields[a].dist, fields[a].hops, fields[a].obs) <
                std::tie(fields[b].dist, fields[b].hops, fields[b].obs);
            mismatches += (labels[a] < labels[b]) != tuple;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // The default label is the unreachable one.
    EXPECT_EQ(PathLabel{}.key, PathLabel::of(kNoPath, 0, 0).key);
}

TEST(PathTable, LabelCellSaturatesHopsAt255)
{
    for (const uint32_t h : {0u, 1u, 254u, 255u, 256u, (1u << 24) - 1}) {
        const PathCell cell = PathLabel::of(kNoPath - 1, h, 0xA5).cell();
        EXPECT_EQ(cell.dist, kNoPath - 1);
        EXPECT_EQ(cell.obs, 0xA5);
        EXPECT_EQ(cell.hops, std::min<uint32_t>(h, 255)) << h;
    }
    const PathCell unreachable = PathLabel{}.cell();
    EXPECT_EQ(unreachable.dist, kNoPath);
    EXPECT_EQ(unreachable.obs, 0);
}

TEST(PathTable, ShortestPathsAvoidHeavyEdge)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const PathTable paths(graph);
    const Weight w01 = units(0.1);
    // 0->2 goes through 1 (2*w01) instead of the heavy direct edge.
    EXPECT_EQ(paths.dist(0, 2), 2 * w01);
    EXPECT_EQ(paths.pathHops(0, 2), 2);
    // Observable parity along 0-1-2 is 0 (both edges obs-free).
    EXPECT_EQ(paths.pathObs(0, 2), 0ull);
    EXPECT_EQ(paths.dist(1, 1), 0u);
}

TEST(PathTable, BoundaryUsesBestAttachment)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const PathTable paths(graph);
    // Node 0 attaches directly (p=0.01 edge).
    EXPECT_EQ(paths.distToBoundary(0), units(0.01));
    EXPECT_EQ(paths.boundaryHops(0), 1);
    EXPECT_EQ(paths.boundaryObs(0), 1ull);
    // Node 1's best boundary route is via node 2 (w12 + w2B is
    // cheaper than w01 + w0B).
    EXPECT_EQ(paths.distToBoundary(1), units(0.1) + units(0.2));
    EXPECT_EQ(paths.boundaryHops(1), 2);
    EXPECT_EQ(paths.boundaryObs(1), 0ull);
}

TEST(PathTable, MatchesFloydWarshallOnSurfaceGraph)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    const DecodingGraph &graph = ctx.graph();
    const PathTable &paths = ctx.paths();
    const uint32_t n = graph.numDetectors();

    // Floyd-Warshall reference, in exact integer weights.
    std::vector<std::vector<Weight>> dist(
        n, std::vector<Weight>(n, Weight{kNoPath}));
    for (uint32_t i = 0; i < n; ++i) {
        dist[i][i] = 0;
    }
    for (const GraphEdge &edge : graph.edges()) {
        if (edge.v == kBoundary) {
            continue;
        }
        dist[edge.u][edge.v] =
            std::min(dist[edge.u][edge.v], edge.weight);
        dist[edge.v][edge.u] = dist[edge.u][edge.v];
    }
    for (uint32_t k = 0; k < n; ++k) {
        for (uint32_t i = 0; i < n; ++i) {
            for (uint32_t j = 0; j < n; ++j) {
                dist[i][j] = std::min(dist[i][j],
                                      dist[i][k] + dist[k][j]);
            }
        }
    }
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            ASSERT_EQ(paths.dist(i, j), dist[i][j])
                << i << "," << j;
        }
    }
}

TEST(PathTable, SurfaceGraphBoundaryReachableEverywhere)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (uint32_t det = 0; det < ctx.graph().numDetectors();
         ++det) {
        EXPECT_NE(ctx.paths().distToBoundary(det), kNoPath);
        EXPECT_GT(ctx.paths().distToBoundary(det), 0u);
    }
}

TEST(PathTable, DeferredTableKeepsLandmarkColumns)
{
    // A DeferPairs table keeps the boundary column plus kLandmarks
    // landmark columns: each landmark sits at distance 0 in
    // its own column, every column obeys the triangle inequality
    // against the dense pair distances, and storageBytes() counts
    // exactly the cells and columns of either mode.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    const PathTable &dense = ctx.paths();
    const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
    const uint32_t n = ctx.graph().numDetectors();
    const int lms = deferred.numLandmarks();
    ASSERT_EQ(lms, PathTable::kLandmarks);
    EXPECT_EQ(dense.numLandmarks(), 0);
    EXPECT_EQ(deferred.storageBytes(),
              n * sizeof(PathCell) + n * lms * sizeof(uint32_t));
    EXPECT_EQ(dense.storageBytes(),
              (static_cast<size_t>(n) * n + n) * sizeof(PathCell));
    for (int l = 0; l < lms; ++l) {
        int at_zero = 0;
        for (uint32_t v = 0; v < n; ++v) {
            at_zero += deferred.landmarkRow(v)[l] == 0u;
        }
        EXPECT_GE(at_zero, 1) << "landmark " << l;
    }
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            for (int l = 0; l < lms; ++l) {
                const Weight a = deferred.landmarkRow(i)[l];
                const Weight b = deferred.landmarkRow(j)[l];
                // Exact: no rounding slack.
                ASSERT_LE(std::abs(a - b), Weight{dense.dist(i, j)})
                    << i << "," << j << " landmark " << l;
            }
        }
    }
}

} // namespace
} // namespace qec
