#include "qec/predecode/pinball.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** Proposal sentinels: a bit with no pattern hit this round, and a
 *  boundary-pattern hit (local indices are >= 0). */
constexpr int32_t kNoProposal = -2;
constexpr int32_t kBoundaryProposal = -1;

/** Per-round pipeline depth: table lookup, partner exchange, and
 *  commit run as three per-bit stages evaluated in parallel across
 *  bits, so the charge is constant per round regardless of HW. */
constexpr long long kCyclesPerRound = 3;

} // namespace

PinballPredecoder::PinballPredecoder(const DecodingGraph &graph,
                                     const PathTable &paths,
                                     const PinballConfig &config)
    : Predecoder(graph, paths), config_(config)
{
    QEC_ASSERT(config_.rounds >= 1,
               "pinball rounds must be positive");
    // Rank each detector's pair edges by descending probability
    // (ascending matching weight, edge id as the deterministic
    // tie-break) — the likelihood-sorted pattern table of the
    // paper, distilled to decoding-graph patterns.
    const uint32_t n = graph.numDetectors();
    tableOffset_.assign(n + 1, 0);
    for (uint32_t det = 0; det < n; ++det) {
        tableOffset_[det + 1] =
            tableOffset_[det] +
            static_cast<int32_t>(graph.pairNeighbors(det).size());
    }
    tableNeighbor_.resize(tableOffset_[n]);
    tableEdge_.resize(tableOffset_[n]);
    std::vector<uint32_t> order;
    for (uint32_t det = 0; det < n; ++det) {
        const auto row = graph.pairNeighbors(det);
        order.resize(row.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      const Weight wa = graph.edgeWeight(row[a].edgeId);
                      const Weight wb = graph.edgeWeight(row[b].edgeId);
                      if (wa != wb) {
                          return wa < wb;
                      }
                      return row[a].edgeId < row[b].edgeId;
                  });
        for (size_t o = 0; o < row.size(); ++o) {
            const PairHalfEdge &half = row[order[o]];
            tableNeighbor_[tableOffset_[det] + o] = half.neighbor;
            tableEdge_[tableOffset_[det] + o] = half.edgeId;
        }
    }
}

void
PinballPredecoder::predecode(std::span<const uint32_t> defects,
                             long long cycle_budget,
                             DecodeWorkspace &workspace,
                             PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Fixed-latency pipeline, not adaptive.
    result.reset();

    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    int32_t *proposal = arena.allocate<int32_t>(n);
    uint32_t *proposalEdge = arena.allocate<uint32_t>(n);
    Weight weight = 0;

    for (int round = 0; round < config_.rounds; ++round) {
        // No sg.refresh() needed: the propose loop reads only the
        // alive flags and membership, both updated eagerly by
        // kill(); round-start consistency comes from kills
        // happening exclusively in the commit phase below.
        ++result.rounds;
        result.cycles += kCyclesPerRound;

        // Propose: every flipped bit independently walks its
        // pattern table and selects the highest-ranked entry whose
        // partner bit is also flipped; a bit whose neighborhood is
        // all-quiet falls through to the boundary pattern. Pure
        // reads — proposals see a consistent round-start state.
        for (int i = 0; i < n; ++i) {
            proposal[i] = kNoProposal;
            if (!sg.alive(i)) {
                continue;
            }
            const uint32_t det = sg.det(i);
            for (int32_t o = tableOffset_[det];
                 o < tableOffset_[det + 1]; ++o) {
                const int32_t j =
                    sg.localIndexOf(tableNeighbor_[o]);
                if (j >= 0 && sg.alive(j)) {
                    proposal[i] = j;
                    proposalEdge[i] = tableEdge_[o];
                    break;
                }
            }
            if (proposal[i] == kNoProposal &&
                config_.matchBoundary) {
                const int beid = graph_.boundaryEdge(det);
                if (beid >= 0) {
                    proposal[i] = kBoundaryProposal;
                    proposalEdge[i] =
                        static_cast<uint32_t>(beid);
                }
            }
        }

        // Commit: mutual selections pair up; boundary hits commit
        // unilaterally (only all-quiet bits reach the boundary
        // pattern, so no pair proposal can target them).
        bool any_commit = false;
        for (int i = 0; i < n; ++i) {
            if (proposal[i] == kBoundaryProposal) {
                result.obsMask ^=
                    graph_.edgeObsMask(proposalEdge[i]);
                weight += graph_.edgeWeight(proposalEdge[i]);
                sg.kill(i);
                any_commit = true;
            } else if (proposal[i] > i &&
                       proposal[proposal[i]] == i) {
                result.obsMask ^=
                    graph_.edgeObsMask(proposalEdge[i]);
                weight += graph_.edgeWeight(proposalEdge[i]);
                sg.kill(i);
                sg.kill(proposal[i]);
                any_commit = true;
            }
        }
        if (!any_commit) {
            break;
        }
    }
    result.weight = toNats(weight);

    for (int i = 0; i < n; ++i) {
        if (sg.alive(i)) {
            rt::pushBack(result.residual, sg.det(i));
        }
    }
}

void
PinballPredecoder::predecodeBlock(
    std::span<const uint64_t> detectorWords, uint64_t laneMask,
    long long cycle_budget, DecodeWorkspace &workspace,
    BlockPredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Fixed-latency pipeline, not adaptive.
    result.reset();
    result.laneMask = laneMask;
    if (laneMask == 0) {
        return;
    }

    // Union syndrome: every detector flipped in any requested lane.
    // Lane l's subgraph nodes are exactly the union nodes whose
    // alive word has bit l set, so per-lane local indices and union
    // indices enumerate the same detectors in the same (ascending)
    // order — which is what keeps per-lane commit order identical
    // to serial.
    BlockScratch &block = workspace.block;
    block.unionDets.clear();
    for (uint32_t det = 0;
         det < static_cast<uint32_t>(detectorWords.size()); ++det) {
        if (detectorWords[det] & laneMask) {
            rt::pushBack(block.unionDets, det);
        }
    }
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, block.unionDets);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    // Union-restricted pattern rows, rank order preserved. Entries
    // whose partner is outside the union can never hit in any lane
    // (the partner is absent from that lane's syndrome too), so
    // dropping them here changes nothing per lane.
    int32_t *rowOffset = arena.allocate<int32_t>(n + 1);
    int32_t upper = 0;
    for (int i = 0; i < n; ++i) {
        const uint32_t det = sg.det(i);
        upper += tableOffset_[det + 1] - tableOffset_[det];
    }
    int32_t *rowPartner = arena.allocate<int32_t>(upper);
    uint32_t *rowEdge = arena.allocate<uint32_t>(upper);
    uint64_t *rowChoice = arena.allocate<uint64_t>(upper);
    int32_t cursor = 0;
    for (int i = 0; i < n; ++i) {
        rowOffset[i] = cursor;
        const uint32_t det = sg.det(i);
        for (int32_t o = tableOffset_[det];
             o < tableOffset_[det + 1]; ++o) {
            const int32_t j = sg.localIndexOf(tableNeighbor_[o]);
            if (j >= 0) {
                rowPartner[cursor] = j;
                rowEdge[cursor] = tableEdge_[o];
                ++cursor;
            }
        }
    }
    rowOffset[n] = cursor;

    uint64_t *alive = arena.allocate<uint64_t>(n);
    uint64_t *boundaryChoice = arena.allocate<uint64_t>(n);
    int32_t *boundaryEdgeOf = arena.allocate<int32_t>(n);
    for (int i = 0; i < n; ++i) {
        alive[i] = detectorWords[sg.det(i)] & laneMask;
        boundaryEdgeOf[i] =
            config_.matchBoundary ? graph_.boundaryEdge(sg.det(i))
                                  : -1;
    }

    // Per-lane round of the last commit: a lane whose round commits
    // nothing is at a fixed point (its alive set no longer changes,
    // so neither do its proposals), which is how the serial early
    // exit is recovered per lane below.
    std::array<int, 64> lastCommit{};

    for (int round = 1; round <= config_.rounds; ++round) {
        // Propose: each lane of each defect bit independently claims
        // the highest-ranked entry whose partner is alive in that
        // lane; leftover lanes fall through to the boundary pattern.
        for (int i = 0; i < n; ++i) {
            uint64_t pending = alive[i];
            for (int32_t o = rowOffset[i]; o < rowOffset[i + 1];
                 ++o) {
                const uint64_t hit = pending & alive[rowPartner[o]];
                rowChoice[o] = hit;
                pending &= ~hit;
            }
            boundaryChoice[i] =
                boundaryEdgeOf[i] >= 0 ? pending : 0;
        }

        // Commit, ascending union index — the same detector order
        // as each lane's serial commit scan. Boundary hits commit
        // unilaterally; pair proposals commit where mutual, from
        // the smaller index with its own chosen edge (the serial
        // proposal[i] > i && proposal[proposal[i]] == i rule).
        uint64_t round_commit = 0;
        for (int i = 0; i < n; ++i) {
            const uint64_t bmask = boundaryChoice[i];
            if (bmask) {
                const uint32_t eid =
                    static_cast<uint32_t>(boundaryEdgeOf[i]);
                const uint64_t obs = graph_.edgeObsMask(eid);
                const double w = toNats(graph_.edgeWeight(eid));
                forEachSetBit(bmask, [&](int lane) {
                    result.obsMask[lane] ^= obs;
                    result.weight[lane] += w;
                });
                alive[i] &= ~bmask;
                round_commit |= bmask;
            }
            for (int32_t o = rowOffset[i]; o < rowOffset[i + 1];
                 ++o) {
                const int32_t j = rowPartner[o];
                if (j <= i) {
                    continue;
                }
                uint64_t m = rowChoice[o];
                if (!m) {
                    continue;
                }
                // Lanes whose partner chose us back (any of j's
                // entries pointing at i — rows are short).
                uint64_t reverse = 0;
                for (int32_t ro = rowOffset[j];
                     ro < rowOffset[j + 1]; ++ro) {
                    if (rowPartner[ro] == i) {
                        reverse |= rowChoice[ro];
                    }
                }
                m &= reverse;
                if (!m) {
                    continue;
                }
                const uint32_t eid = rowEdge[o];
                const uint64_t obs = graph_.edgeObsMask(eid);
                const double w = toNats(graph_.edgeWeight(eid));
                forEachSetBit(m, [&](int lane) {
                    result.obsMask[lane] ^= obs;
                    result.weight[lane] += w;
                });
                alive[i] &= ~m;
                alive[j] &= ~m;
                round_commit |= m;
            }
        }
        forEachSetBit(round_commit,
                      [&](int lane) { lastCommit[lane] = round; });
        if (!round_commit) {
            break; // Every lane is at a fixed point.
        }
    }

    for (int i = 0; i < n; ++i) {
        if (alive[i]) {
            rt::pushBack(result.residualDets, sg.det(i));
            rt::pushBack(result.residualWords, alive[i]);
        }
    }
    forEachSetBit(laneMask, [&](int lane) {
        // Serial runs until (and counts) the first commit-free
        // round, capped at the configured depth.
        const int rounds =
            std::min(config_.rounds, lastCommit[lane] + 1);
        result.rounds[lane] = rounds;
        result.cycles[lane] = kCyclesPerRound * rounds;
    });
}

QEC_REGISTER_PREDECODER(
    pinball,
    "Pinball cryogenic pattern-table local predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<PinballPredecoder>(
            context.graph, context.paths, context.pinball);
    });

} // namespace qec
