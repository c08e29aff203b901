/**
 * @file
 * Equivalence suite for the sparse local-growth matching core
 * (src/qec/matching/sparse_matcher.hpp):
 *
 *  - randomized fuzz against the dense blossom solver — identical
 *    validity and exactly equal total weight on surface-code
 *    syndromes at d in {5, 7, 11, 13}, importance-sampled defect
 *    counts from 0 up through the kMax tail, and random DEMs
 *    including infeasible defect subsets;
 *  - backend bit-identity: the dense-table-backed and the
 *    DeferPairs/Dijkstra-backed builds of SparseMatchingProblem
 *    must produce the identical candidate sets, solutions, and
 *    predicted observables, on surface codes up to d = 13 and on
 *    random DEMs with a disconnected component, near-zero weights
 *    and equal weights everywhere (ties that a pop-order-dependent
 *    labelling rule would resolve differently in the table's heap
 *    and the oracle's bucket ring);
 *  - DistanceOracle rebinding when a new graph reuses the old
 *    one's address;
 *  - every stack that reads pair cells (the Astrea / Astrea-G
 *    defect graph, Promatch Step 3, the sparse build) decodes
 *    identically on a dense and a DeferPairs table;
 *  - the `mwpm` decoder's weights equal blossom's on the full
 *    defect graph, and `mwpm` and `sparse` are one decoder;
 *  - decodeBlock lane equivalence with the sparse matcher active on
 *    a DeferPairs table (the registry-wide block fuzz covers the
 *    dense-table case).
 */

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/sparse_matcher.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

/**
 * Random connected-ish graphlike DEM with boundary edges (the
 * test_data_layout idiom). The last `island` detectors form a second
 * component with no edge to the first, so distances (and landmark
 * distances) across the two are infinite. With `nearHalf` every
 * probability lies in (0.4, 0.5), skewed toward 0.5: edge weights
 * span 0.41 nat down to ~4e-7, most of them clamped to the one-unit
 * minimum. With `uniform` every edge has probability 0.01, so equal
 * distances reached along paths of different observable parity are
 * everywhere.
 */
GraphlikeDem
randomDem(Rng &rng, uint32_t num_detectors, uint32_t island = 0,
          bool nearHalf = false, bool uniform = false)
{
    GraphlikeDem dem;
    dem.numDetectors = num_detectors;
    dem.numObservables = 2;
    const auto random_prob = [&] {
        if (uniform) {
            return 0.01;
        }
        if (nearHalf) {
            const double r = rng.nextDouble();
            return 0.4999999 - 0.0999999 * r * r * r;
        }
        return 0.005 + 0.4 * rng.nextDouble();
    };
    const auto component = [&](uint32_t first, uint32_t size) {
        for (uint32_t v = first + 1; v < first + size; ++v) {
            dem.edges.push_back(
                {v - 1, v, rng.next64() & 3, random_prob()});
        }
        const uint32_t chords = size * 2;
        for (uint32_t c = 0; c < chords; ++c) {
            const uint32_t a =
                first + static_cast<uint32_t>(rng.next64() % size);
            const uint32_t b =
                first + static_cast<uint32_t>(rng.next64() % size);
            if (a == b) {
                continue;
            }
            dem.edges.push_back({std::min(a, b), std::max(a, b),
                                 rng.next64() & 3, random_prob()});
        }
        for (uint32_t v = first; v < first + size; v += 3) {
            dem.edges.push_back(
                {v, kBoundary, rng.next64() & 1, random_prob()});
        }
    };
    component(0, num_detectors - island);
    if (island > 0) {
        component(num_detectors - island, island);
    }
    return dem;
}

/** Valid graphlike syndrome: flip random edges, accumulate endpoint
 *  parity (always matchable). */
std::vector<uint32_t>
randomSyndrome(const DecodingGraph &graph, Rng &rng, double rate)
{
    std::vector<uint8_t> flipped(graph.numDetectors(), 0);
    for (const GraphEdge &edge : graph.edges()) {
        if (rng.nextDouble() >= rate) {
            continue;
        }
        flipped[edge.u] ^= 1;
        if (edge.v != kBoundary) {
            flipped[edge.v] ^= 1;
        }
    }
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < graph.numDetectors(); ++det) {
        if (flipped[det]) {
            defects.push_back(det);
        }
    }
    return defects;
}

/**
 * Core fuzz check: the sparse matcher must agree with dense blossom
 * on validity and, exactly, on total weight (both sum the same
 * integers). The mate arrays may legitimately differ between
 * equal-weight optima; when the solvers picked the same matching,
 * the predicted observables must be bit-identical.
 */
void
expectSparseMatchesDense(const PathTable &paths,
                         std::span<const uint32_t> defects,
                         const std::string &label)
{
    DistanceOracle oracle;
    DefectGraph dg;
    buildDefectGraphInto(defects, paths, oracle, dg);
    BlossomSolver blossom;
    MatchingSolution dense;
    blossom.solve(dg.problem, dense);

    SparseMatchingProblem sp;
    sp.build(paths, defects);
    SparseMatcher matcher;
    MatchingSolution sparse;
    matcher.solve(sp, sparse);

    ASSERT_EQ(dense.valid, sparse.valid) << label;
    if (!dense.valid) {
        return;
    }
    EXPECT_EQ(dense.totalWeight, sparse.totalWeight) << label;
    // Internal consistency of the sparse mates.
    for (int i = 0; i < sp.size(); ++i) {
        const int m = sparse.mate[i];
        ASSERT_TRUE(m == -1 || (m >= 0 && m < sp.size())) << label;
        if (m >= 0) {
            EXPECT_EQ(sparse.mate[m], i) << label;
        }
    }
    if (dense.mate == sparse.mate) {
        EXPECT_EQ(dg.solutionObs(dense),
                  sp.solutionObs(sparse))
            << label;
    }
}

TEST(SparseMatch, MatchesBlossomOnSurfaceSyndromes)
{
    for (int d : {5, 7, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        Rng rng(0x5a11 + static_cast<uint64_t>(d));
        const int trials = d <= 7 ? 30 : 8;
        for (double rate : {0.002, 0.005, 0.01, 0.03}) {
            for (int t = 0; t < trials; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(ctx.graph(), rng, rate);
                expectSparseMatchesDense(
                    ctx.paths(), defects,
                    "d=" + std::to_string(d) + " rate=" +
                        std::to_string(rate) + " trial " +
                        std::to_string(t));
            }
        }
    }
}

TEST(SparseMatch, MatchesBlossomAcrossDefectCounts)
{
    // Defect counts 0..S via the importance sampler's k sweep (S =
    // 2k before deduplication; the sampler requires k >= 1, and the
    // zero-defect end of the axis is pinned explicitly here and in
    // EmptyAndSingletonSyndromes).
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    expectSparseMatchesDense(ctx.paths(), {}, "k=0 empty");
    ImportanceSampler sampler(ctx.dem(), 16);
    for (int k = 1; k <= 16; ++k) {
        for (int i = 0; i < 12; ++i) {
            Rng rng = Rng::forSample(0x5a2e, k, i);
            const auto sample = sampler.sample(k, rng);
            expectSparseMatchesDense(
                ctx.paths(), sample.defects,
                "k=" + std::to_string(k) + " sample " +
                    std::to_string(i));
        }
    }
}

TEST(SparseMatch, MatchesBlossomOnRandomDems)
{
    Rng dem_rng(0x5a3d);
    for (int round = 0; round < 3; ++round) {
        const DecodingGraph graph =
            DecodingGraph::fromDem(randomDem(dem_rng, 40));
        const PathTable paths(graph);
        Rng rng(0x5a4e + static_cast<uint64_t>(round));
        for (double rate : {0.01, 0.05, 0.15, 0.4}) {
            for (int t = 0; t < 20; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(graph, rng, rate);
                expectSparseMatchesDense(
                    paths, defects,
                    "dem" + std::to_string(round) + " rate=" +
                        std::to_string(rate) + " trial " +
                        std::to_string(t));
            }
        }
        // Arbitrary detector subsets: not necessarily matchable, so
        // this also fuzzes the valid=false agreement.
        for (int t = 0; t < 40; ++t) {
            std::vector<uint32_t> defects;
            for (uint32_t det = 0; det < graph.numDetectors();
                 ++det) {
                if (rng.nextDouble() < 0.15) {
                    defects.push_back(det);
                }
            }
            expectSparseMatchesDense(paths, defects,
                                     "dem" + std::to_string(round) +
                                         " subset trial " +
                                         std::to_string(t));
        }
    }
}

/**
 * The Dijkstra-backed build (DeferPairs table) must reproduce the
 * dense-table-backed build exactly: same candidate sets (cells
 * bit-identical), hence the same solutions bit-for-bit.
 */
void
expectDeferredMatchesTable(const PathTable &dense,
                           const PathTable &deferred,
                           std::span<const uint32_t> defects,
                           const std::string &label)
{
    SparseMatchingProblem viaTable;
    SparseMatchingProblem viaDijkstra;
    SparseMatcher matcher;
    MatchingSolution solTable;
    MatchingSolution solDijkstra;
    viaTable.build(dense, defects);
    viaDijkstra.build(deferred, defects);
    ASSERT_EQ(viaTable.size(), viaDijkstra.size()) << label;
    for (int i = 0; i < viaTable.size(); ++i) {
        const auto a = viaTable.candidates(i);
        const auto b = viaDijkstra.candidates(i);
        ASSERT_EQ(a.size(), b.size()) << label << " defect " << i;
        for (size_t c = 0; c < a.size(); ++c) {
            EXPECT_EQ(a[c].j, b[c].j) << label;
            EXPECT_EQ(a[c].cell.dist, b[c].cell.dist) << label;
            EXPECT_EQ(a[c].cell.obs, b[c].cell.obs) << label;
            EXPECT_EQ(a[c].cell.hops, b[c].cell.hops) << label;
        }
    }
    matcher.solve(viaTable, solTable);
    matcher.solve(viaDijkstra, solDijkstra);
    EXPECT_EQ(solTable.valid, solDijkstra.valid) << label;
    EXPECT_EQ(solTable.mate, solDijkstra.mate) << label;
    EXPECT_EQ(solTable.totalWeight, solDijkstra.totalWeight)
        << label; // exact ==: same cells, same order
    if (solTable.valid) {
        EXPECT_EQ(viaTable.solutionObs(solTable),
                  viaDijkstra.solutionObs(solDijkstra))
            << label;
    }
}

TEST(SparseMatch, DeferredBackendBitIdenticalToTableBackend)
{
    for (int d : {5, 7, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable deferred(ctx.graph(),
                                 PathTable::DeferPairs{});
        ASSERT_FALSE(deferred.pairsAvailable());
        ASSERT_TRUE(ctx.paths().pairsAvailable());
        Rng rng(0x5a5f + static_cast<uint64_t>(d));
        const int trials = d <= 11 ? 12 : 6;
        for (double rate : {0.002, 0.01, 0.03}) {
            for (int t = 0; t < trials; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(ctx.graph(), rng, rate);
                expectDeferredMatchesTable(
                    ctx.paths(), deferred, defects,
                    "d=" + std::to_string(d) + " rate=" +
                        std::to_string(rate) + " trial " +
                        std::to_string(t));
            }
        }
    }

    // Random DEMs: a second component (landmark distances kNoPath
    // on one or both sides of a pair), weights clamped to one unit,
    // and equal weights everywhere (ties on every other node), on
    // matchable syndromes and on arbitrary, possibly infeasible
    // subsets.
    Rng dem_rng(0x5a9d);
    for (int round = 0; round < 6; ++round) {
        const bool near_half = round % 2 == 1 && round < 4;
        const bool uniform = round >= 4;
        const DecodingGraph graph = DecodingGraph::fromDem(
            randomDem(dem_rng, 60, 15, near_half, uniform));
        const PathTable dense(graph);
        const PathTable deferred(graph, PathTable::DeferPairs{});
        Rng rng(0x5aae + static_cast<uint64_t>(round));
        for (int t = 0; t < 40; ++t) {
            std::vector<uint32_t> defects;
            if (t % 2 == 0) {
                defects = randomSyndrome(graph, rng, 0.1);
            } else {
                for (uint32_t det = 0; det < graph.numDetectors();
                     ++det) {
                    if (rng.nextDouble() < 0.2) {
                        defects.push_back(det);
                    }
                }
            }
            expectDeferredMatchesTable(
                dense, deferred, defects,
                "dem" + std::to_string(round) +
                    (near_half ? " near-half" : "") +
                    (uniform ? " uniform" : "") + " trial " +
                    std::to_string(t));
        }
    }
}

TEST(SparseMatch, OracleRebindsWhenANewGraphReusesTheAddress)
{
    // Re-emplacing a std::optional puts a different graph at the
    // same address. bind() must still resize its scratch for the
    // larger graph (an out-of-bounds write otherwise, which the
    // address-sanitizer job reports), and the rebound oracle must
    // agree with a freshly bound one.
    Rng dem_rng(0x5abd);
    std::optional<DecodingGraph> graph;
    graph.emplace(DecodingGraph::fromDem(randomDem(dem_rng, 8)));
    const DecodingGraph *const first = &*graph;
    DistanceOracle oracle;
    oracle.bind(*graph);
    const Weight inf = std::numeric_limits<Weight>::max();
    const std::vector<uint32_t> small_targets = {1, 7};
    const std::vector<Weight> small_bounds = {inf, inf};
    PathCell small_out[2];
    oracle.grow(0, small_targets, small_bounds, small_out);

    graph.emplace(DecodingGraph::fromDem(randomDem(dem_rng, 4000)));
    ASSERT_EQ(&*graph, first);
    oracle.bind(*graph);
    DistanceOracle fresh;
    fresh.bind(*graph);
    const std::vector<uint32_t> targets = {3999, 2000, 17, 0};
    const std::vector<Weight> bounds(targets.size(), inf);
    std::vector<PathCell> got(targets.size());
    std::vector<PathCell> want(targets.size());
    oracle.grow(3998, targets, bounds, got.data());
    fresh.grow(3998, targets, bounds, want.data());
    for (size_t k = 0; k < targets.size(); ++k) {
        EXPECT_EQ(got[k].dist, want[k].dist) << k;
        EXPECT_EQ(got[k].obs, want[k].obs) << k;
        EXPECT_EQ(got[k].hops, want[k].hops) << k;
    }
}

TEST(SparseMatch, DenseAndDeferredTablesDecodeIdentically)
{
    // Every stack that reads pair cells reads them through
    // readPairCells: table rows on a dense table, oracle growth on a
    // DeferPairs one. Each DecodeResult must be the same on both,
    // and Step 3 must commit on some sample so that its bounded
    // oracle row read runs.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
    ImportanceSampler sampler(ctx.dem(), 24);
    std::vector<std::vector<uint32_t>> samples;
    for (int k = 2; k <= 24; k += 2) {
        for (int i = 0; i < 40; ++i) {
            Rng rng = Rng::forSample(0xde5e, k, i);
            samples.push_back(sampler.sample(k, rng).defects);
        }
    }
    bool step3 = false;
    for (const char *spec :
         {"promatch+astrea", "astrea", "astrea_g",
          "promatch+astrea||astrea_g", "promatch+sparse", "mwpm"}) {
        auto dense = build(DecoderSpec::parse(spec), ctx.graph(),
                           ctx.paths());
        auto onDemand = build(DecoderSpec::parse(spec), ctx.graph(),
                              deferred);
        DecodeWorkspace denseWs;
        DecodeWorkspace onDemandWs;
        DecodeTrace trace;
        for (size_t n = 0; n < samples.size(); ++n) {
            const DecodeResult a = dense->decode(samples[n], denseWs);
            const DecodeResult b =
                onDemand->decode(samples[n], onDemandWs, &trace);
            step3 = step3 || trace.steps.step3;
            const std::string label =
                std::string(spec) + " sample " + std::to_string(n);
            EXPECT_EQ(a.predictedObs, b.predictedObs) << label;
            EXPECT_EQ(a.weight, b.weight) << label;
            EXPECT_EQ(a.latencyNs, b.latencyNs) << label;
            EXPECT_EQ(a.aborted, b.aborted) << label;
            EXPECT_EQ(a.realTime, b.realTime) << label;
        }
    }
    EXPECT_TRUE(step3) << "Step 3 never committed";
}

TEST(SparseMatch, LerMatchesDenseMwpm)
{
    // `mwpm` is the sparse core: per sample, its weight equals
    // blossom's optimum on the full defect graph exactly, and `mwpm`
    // and `sparse` give the identical LER estimate.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto mwpm = build(DecoderSpec::parse("mwpm"), ctx.graph(),
                      ctx.paths());
    auto sparse = build(DecoderSpec::parse("sparse"), ctx.graph(),
                        ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 10);
    DecodeWorkspace ws;
    DistanceOracle oracle;
    DefectGraph dg;
    BlossomSolver blossom;
    MatchingSolution dense;
    for (int k = 1; k <= 8; ++k) {
        for (int i = 0; i < 40; ++i) {
            Rng rng = Rng::forSample(0x5a7e, k, i);
            const auto sample = sampler.sample(k, rng);
            const DecodeResult a = mwpm->decode(sample.defects, ws);
            buildDefectGraphInto(sample.defects, ctx.paths(), oracle,
                                 dg);
            blossom.solve(dg.problem, dense);
            ASSERT_EQ(a.aborted, !dense.valid);
            EXPECT_EQ(a.weight, dense.totalWeight)
                << "k=" << k << " sample " << i;
        }
    }

    LerOptions options;
    options.kMax = 10;
    options.samplesPerK = 300;
    options.skipBelowK = 2;
    const LerEstimate lerMwpm = estimateLer(ctx, *mwpm, options);
    const LerEstimate lerSparse =
        estimateLer(ctx, *sparse, options);
    ASSERT_GT(lerMwpm.ler, 0.0);
    EXPECT_EQ(lerSparse.ler, lerMwpm.ler);
}

TEST(SparseMatch, DecodeBlockLaneEquivalenceOnDeferredTable)
{
    // The registry-wide block fuzz covers sparse stacks on dense
    // tables; this pins the DeferPairs configuration (the actual
    // d = 21 setup) for both the bare matcher and a promatch stack.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
    for (const char *spec : {"sparse", "promatch+sparse"}) {
        auto decoder = build(DecoderSpec::parse(spec), ctx.graph(),
                             deferred);
        auto reference = decoder->clone();
        DecodeWorkspace blockWs;
        DecodeWorkspace serialWs;
        std::array<DecodeResult, 64> results;
        Rng rng(0x5a8f);
        for (int lanes : {1, 7, 64}) {
            std::vector<uint64_t> words(ctx.graph().numDetectors(),
                                        0);
            const double rates[] = {0.0,  0.004, 0.01, 0.02,
                                    0.04, 0.08,  0.15, 0.3};
            for (int lane = 0; lane < 64; ++lane) {
                const double rate = rates[lane % 8];
                const uint64_t bit = uint64_t{1} << lane;
                for (const GraphEdge &edge : ctx.graph().edges()) {
                    if (rng.nextDouble() >= rate) {
                        continue;
                    }
                    words[edge.u] ^= bit;
                    if (edge.v != kBoundary) {
                        words[edge.v] ^= bit;
                    }
                }
            }
            decoder->decodeBlock(words, lanes, blockWs,
                                 results.data());
            for (int lane = 0; lane < lanes; ++lane) {
                std::vector<uint32_t> defects;
                for (size_t det = 0; det < words.size(); ++det) {
                    if ((words[det] >> lane) & 1) {
                        defects.push_back(
                            static_cast<uint32_t>(det));
                    }
                }
                const DecodeResult serial =
                    reference->decode(defects, serialWs);
                const std::string label =
                    std::string(spec) + " lanes=" +
                    std::to_string(lanes) + " lane=" +
                    std::to_string(lane);
                EXPECT_EQ(results[lane].predictedObs,
                          serial.predictedObs)
                    << label;
                EXPECT_EQ(results[lane].weight, serial.weight)
                    << label;
                EXPECT_EQ(results[lane].latencyNs,
                          serial.latencyNs)
                    << label;
                EXPECT_EQ(results[lane].aborted, serial.aborted)
                    << label;
            }
        }
    }
}

TEST(SparseMatch, EmptyAndSingletonSyndromes)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    SparseMatchingProblem sp;
    SparseMatcher matcher;
    MatchingSolution sol;
    sp.build(ctx.paths(), {});
    matcher.solve(sp, sol);
    EXPECT_TRUE(sol.valid);
    EXPECT_EQ(sol.totalWeight, 0.0);
    EXPECT_TRUE(sol.mate.empty());

    // Any single surface-code defect has a boundary path.
    const std::vector<uint32_t> one = {0};
    sp.build(ctx.paths(), one);
    matcher.solve(sp, sol);
    ASSERT_TRUE(sol.valid);
    EXPECT_EQ(sol.mate, std::vector<int>{-1});
    EXPECT_EQ(sol.totalWeight,
              toNats(ctx.paths().distToBoundary(0)));
}

} // namespace
} // namespace qec
