#include "qec/predecode/hierarchical.hpp"

#include <algorithm>
#include <cmath>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
HierarchicalPredecoder::predecode(std::span<const uint32_t> defects,
                                  long long cycle_budget,
                                  DecodeWorkspace &workspace,
                                  PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget;
    result.reset();
    result.rounds = 1;
    // Per-bit local logic evaluates in parallel (constant depth).
    result.cycles = 2;

    const auto &coords = graph_.coords();
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    // A pair is "weight-1 local" if both bits have each other as the
    // unique neighbor and the pair is either time-like (same
    // stabilizer, adjacent layers) or space-like within one layer.
    uint64_t obs = 0;
    Weight weight = 0;
    uint8_t *covered = arena.allocate<uint8_t>(n);
    std::fill_n(covered, n, uint8_t{0});
    for (int i = 0; i < n; ++i) {
        if (covered[i] || sg.degree(i) != 1) {
            continue;
        }
        const int j = sg.soleNeighbor(i);
        if (covered[j] || sg.degree(j) != 1 ||
            sg.soleNeighbor(j) != i) {
            continue;
        }
        bool local = true;
        if (!coords.empty()) {
            const DetectorCoord &a = coords[defects[i]];
            const DetectorCoord &b = coords[defects[j]];
            const bool timelike = a.zOrdinal == b.zOrdinal &&
                                  std::abs(a.layer - b.layer) == 1;
            const bool spacelike = a.layer == b.layer;
            local = timelike || spacelike;
        }
        if (local) {
            covered[i] = 1;
            covered[j] = 1;
            const uint32_t eid = sg.soleEdge(i);
            obs ^= graph_.edgeObsMask(eid);
            weight += graph_.edgeWeight(eid);
        }
    }

    if (std::all_of(covered, covered + n,
                    [](uint8_t c) { return c != 0; })) {
        result.decodedAll = true;
        result.obsMask = obs;
        result.weight = toNats(weight);
    } else {
        result.forwarded = true;
        rt::assignRange(result.residual, defects.begin(),
                        defects.end());
    }
}

QEC_REGISTER_PREDECODER(
    hierarchical,
    "Delfosse hierarchical weight-1 local predecoder (NSM)",
    [](const BuildContext &context) {
        return std::make_unique<HierarchicalPredecoder>(
            context.graph, context.paths);
    });

} // namespace qec
