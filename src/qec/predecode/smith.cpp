#include "qec/predecode/smith.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** A defect-defect adjacency, sortable by weight. */
struct LocalEdge
{
    Weight weight;
    uint32_t eid;
    int i, j;
};

} // namespace

void
SmithPredecoder::predecode(std::span<const uint32_t> defects,
                           long long cycle_budget,
                           DecodeWorkspace &workspace,
                           PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Not adaptive: one fixed pass.
    result.reset();
    result.rounds = 1;

    // Collect subgraph edges (defect-defect adjacencies) from the
    // shared workspace-rebuilt subgraph view.
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    ArenaVector<LocalEdge> edges(arena, 64);
    for (int i = 0; i < n; ++i) {
        for (int32_t o = 0; o < sg.degree(i); ++o) {
            const int j = sg.neighbors(i)[o];
            if (j > i) {
                const uint32_t eid = sg.edgeIdAt(i, o);
                edges.push_back(
                    {graph_.edgeWeight(eid), eid, i, j});
            }
        }
    }
    result.cycles = static_cast<long long>(edges.size());

    // Total order (weight, then edge id): ties between equal-weight
    // edges resolve identically no matter which subgraph collected
    // them, which is what lets the 64-lane block kernel's one
    // union-sorted walk stay bit-identical with every lane's own
    // sorted walk.
    std::sort(edges.begin(), edges.end(),
              [](const LocalEdge &a, const LocalEdge &b) {
                  return a.weight != b.weight ? a.weight < b.weight
                                              : a.eid < b.eid;
              });

    uint8_t *matched = arena.allocate<uint8_t>(n);
    std::fill_n(matched, n, uint8_t{0});
    Weight weight = 0;
    for (const LocalEdge &edge : edges) {
        if (matched[edge.i] || matched[edge.j]) {
            continue;
        }
        matched[edge.i] = 1;
        matched[edge.j] = 1;
        result.obsMask ^= graph_.edgeObsMask(edge.eid);
        weight += edge.weight;
    }
    result.weight = toNats(weight);

    for (int i = 0; i < n; ++i) {
        if (!matched[i]) {
            rt::pushBack(result.residual, defects[i]);
        }
    }
}

void
SmithPredecoder::predecodeBlock(
    std::span<const uint64_t> detectorWords, uint64_t laneMask,
    long long cycle_budget, DecodeWorkspace &workspace,
    BlockPredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Not adaptive: one fixed pass.
    result.reset();
    result.laneMask = laneMask;
    if (laneMask == 0) {
        return;
    }

    // Union subgraph over every lane's defects. A lane's own
    // subgraph is exactly the union restricted to its present bits:
    // adjacency between two defects depends only on the decoding
    // graph, never on which other defects are flipped.
    BlockScratch &block = workspace.block;
    block.unionDets.clear();
    for (size_t det = 0; det < detectorWords.size(); ++det) {
        if (detectorWords[det] & laneMask) {
            rt::pushBack(block.unionDets,
                         static_cast<uint32_t>(det));
        }
    }
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, block.unionDets);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    uint64_t *present = arena.allocate<uint64_t>(n);
    uint64_t *matched = arena.allocate<uint64_t>(n);
    for (int i = 0; i < n; ++i) {
        present[i] = detectorWords[sg.det(i)] & laneMask;
        matched[i] = 0;
    }

    ArenaVector<LocalEdge> edges(arena, 64);
    for (int i = 0; i < n; ++i) {
        for (int32_t o = 0; o < sg.degree(i); ++o) {
            const int j = sg.neighbors(i)[o];
            if (j > i) {
                const uint32_t eid = sg.edgeIdAt(i, o);
                edges.push_back(
                    {graph_.edgeWeight(eid), eid, i, j});
            }
        }
    }
    std::sort(edges.begin(), edges.end(),
              [](const LocalEdge &a, const LocalEdge &b) {
                  return a.weight != b.weight ? a.weight < b.weight
                                              : a.eid < b.eid;
              });

    // One greedy walk over the union-sorted edges. Because the sort
    // key is total, each lane sees its own edges in exactly its own
    // serial sorted order, so each lane matches what its serial pass
    // matches (and its weight sum is exact, in any order).
    for (const LocalEdge &edge : edges) {
        const uint64_t both = present[edge.i] & present[edge.j];
        if (both == 0) {
            continue;
        }
        forEachSetBit(both, [&](int lane) {
            ++result.cycles[lane]; // serial: one cycle per lane edge
        });
        const uint64_t m =
            both & ~matched[edge.i] & ~matched[edge.j];
        if (m == 0) {
            continue;
        }
        matched[edge.i] |= m;
        matched[edge.j] |= m;
        const uint64_t obs = graph_.edgeObsMask(edge.eid);
        const double weight = toNats(edge.weight);
        forEachSetBit(m, [&](int lane) {
            result.obsMask[lane] ^= obs;
            result.weight[lane] += weight;
        });
    }

    for (int i = 0; i < n; ++i) {
        const uint64_t r = present[i] & ~matched[i];
        if (r != 0) {
            rt::pushBack(result.residualDets, sg.det(i));
            rt::pushBack(result.residualWords, r);
        }
    }
    forEachSetBit(laneMask,
                  [&](int lane) { result.rounds[lane] = 1; });
}

QEC_REGISTER_PREDECODER(
    smith, "Smith et al. one-pass greedy local predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<SmithPredecoder>(context.graph,
                                                 context.paths);
    });

} // namespace qec
