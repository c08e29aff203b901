#include "qec/predecode/clique.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
CliquePredecoder::predecode(std::span<const uint32_t> defects,
                            long long cycle_budget,
                            DecodeWorkspace &workspace,
                            PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget;
    result.reset();
    result.rounds = 1;
    // Clique's per-parity-bit logic runs in parallel across bits:
    // constant pipeline depth regardless of HW.
    result.cycles = 2;

    // Defect subgraph (shared, workspace-rebuilt view): Clique only
    // needs the static in-set degrees and sole neighbors.
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    // Simple patterns: isolated pairs, or lone defects one hop from
    // the boundary. All-or-nothing (NSM).
    uint64_t obs = 0;
    Weight weight = 0;
    uint8_t *covered = arena.allocate<uint8_t>(n);
    std::fill_n(covered, n, uint8_t{0});
    for (int i = 0; i < n; ++i) {
        if (covered[i]) {
            continue;
        }
        if (sg.degree(i) == 1) {
            const int j = sg.soleNeighbor(i);
            if (sg.degree(j) == 1 && sg.soleNeighbor(j) == i) {
                covered[i] = 1;
                covered[j] = 1;
                const uint32_t eid = sg.soleEdge(i);
                obs ^= graph_.edgeObsMask(eid);
                weight += graph_.edgeWeight(eid);
                continue;
            }
        } else if (sg.degree(i) == 0) {
            const int beid = graph_.boundaryEdge(defects[i]);
            if (beid >= 0) {
                const uint32_t eid =
                    static_cast<uint32_t>(beid);
                covered[i] = 1;
                obs ^= graph_.edgeObsMask(eid);
                weight += graph_.edgeWeight(eid);
                continue;
            }
        }
    }

    const bool all_covered = std::all_of(
        covered, covered + n, [](uint8_t c) { return c != 0; });
    if (all_covered) {
        result.decodedAll = true;
        result.obsMask = obs;
        result.weight = toNats(weight);
    } else {
        result.forwarded = true;
        rt::assignRange(result.residual, defects.begin(),
                        defects.end());
    }
}

void
CliquePredecoder::predecodeBlock(
    std::span<const uint64_t> detectorWords, uint64_t laneMask,
    long long cycle_budget, DecodeWorkspace &workspace,
    BlockPredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget;
    result.reset();
    result.laneMask = laneMask;
    if (laneMask == 0) {
        return;
    }

    // Union subgraph over every lane's defects (lane adjacency is
    // the union restricted to that lane's present bits).
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
    uint64_t *deg0 = arena.allocate<uint64_t>(n);
    uint64_t *deg1 = arena.allocate<uint64_t>(n);
    uint64_t *covered = arena.allocate<uint64_t>(n);
    for (int i = 0; i < n; ++i) {
        present[i] = detectorWords[sg.det(i)] & laneMask;
    }
    // Per-lane in-set degree of every union node via a 2-state
    // saturating counter per lane bit: after folding all neighbor
    // entries, c0 = "saw >= 1", c1 = "saw >= 2" (parallel edges
    // count per entry, exactly like the serial row length).
    for (int i = 0; i < n; ++i) {
        uint64_t c0 = 0;
        uint64_t c1 = 0;
        const int32_t deg = sg.degree(i);
        for (int32_t o = 0; o < deg; ++o) {
            const uint64_t m = present[sg.neighbors(i)[o]];
            c1 |= c0 & m;
            c0 |= m;
        }
        deg0[i] = present[i] & ~c0;
        deg1[i] = present[i] & c0 & ~c1;
        covered[i] = 0;
    }

    // Ascending scan, committing each pattern at the index the
    // serial loop commits it: an isolated pair at its smaller
    // endpoint, a lone-by-the-boundary defect at itself. A deg1 bit
    // means the entry's neighbor is that lane's sole present
    // neighbor, so deg1[i] & deg1[j] is exactly the serial mutual
    // sole-neighbor test and fires for at most one entry per lane.
    for (int i = 0; i < n; ++i) {
        const int32_t deg = sg.degree(i);
        for (int32_t o = 0; o < deg; ++o) {
            const int j = sg.neighbors(i)[o];
            if (j <= i) {
                continue;
            }
            const uint64_t pair = deg1[i] & deg1[j];
            if (pair == 0) {
                continue;
            }
            covered[i] |= pair;
            covered[j] |= pair;
            const uint32_t eid = sg.edgeIdAt(i, o);
            const uint64_t obs = graph_.edgeObsMask(eid);
            const double weight = toNats(graph_.edgeWeight(eid));
            forEachSetBit(pair, [&](int lane) {
                result.obsMask[lane] ^= obs;
                result.weight[lane] += weight;
            });
        }
        if (deg0[i] != 0) {
            const int beid = graph_.boundaryEdge(sg.det(i));
            if (beid >= 0) {
                const uint32_t eid = static_cast<uint32_t>(beid);
                const uint64_t obs = graph_.edgeObsMask(eid);
                const double weight =
                    toNats(graph_.edgeWeight(eid));
                covered[i] |= deg0[i];
                forEachSetBit(deg0[i], [&](int lane) {
                    result.obsMask[lane] ^= obs;
                    result.weight[lane] += weight;
                });
            }
        }
    }

    // All-or-nothing per lane: any uncovered defect forwards the
    // whole lane unmodified (obs/weight discarded, like the serial
    // path's local accumulators never reaching the result).
    uint64_t uncovered = 0;
    for (int i = 0; i < n; ++i) {
        uncovered |= present[i] & ~covered[i];
    }
    result.forwardedMask = uncovered;
    result.decodedAllMask = laneMask & ~uncovered;
    forEachSetBit(uncovered, [&](int lane) {
        result.obsMask[lane] = 0;
        result.weight[lane] = 0.0;
    });
    for (int i = 0; i < n; ++i) {
        const uint64_t r = present[i] & uncovered;
        if (r != 0) {
            rt::pushBack(result.residualDets, sg.det(i));
            rt::pushBack(result.residualWords, r);
        }
    }
    forEachSetBit(laneMask, [&](int lane) {
        result.cycles[lane] = 2;
        result.rounds[lane] = 1;
    });
}

QEC_REGISTER_PREDECODER(
    clique,
    "Clique all-or-nothing simple-pattern predecoder (NSM)",
    [](const BuildContext &context) {
        return std::make_unique<CliquePredecoder>(context.graph,
                                                  context.paths);
    });

} // namespace qec
