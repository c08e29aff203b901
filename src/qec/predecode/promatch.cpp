#include "qec/predecode/promatch.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/graph/distance_oracle.hpp"
#include "qec/matching/matching_problem.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
PromatchPredecoder::predecode(std::span<const uint32_t> defects,
                              long long cycle_budget,
                              DecodeWorkspace &workspace,
                              PredecodeResult &result)
{
    QEC_REALTIME;
    result.reset();
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    // All per-round lists below are arena transients; they die with
    // this call, and the arena keeps its high-water capacity across
    // decodes (zero allocations once warm).
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    bool engaged = false;

    // Adaptive HW target (§4.1): the largest T the main decoder can
    // still afford given the cycles already burned.
    const auto target_now = [&](long long used) -> int {
        if (!config_.adaptiveTarget) {
            return config_.fixedTarget;
        }
        for (int t : {latency_.astreaMaxHw, 8, 6}) {
            const long long astrea = latency_.astreaCycles(t);
            if (astrea >= 0 && used + astrea <= cycle_budget) {
                return t;
            }
        }
        return 6; // Nothing fits; keep shrinking, pipeline aborts.
    };

    Weight weight = 0; // Prematched total, reported once at the end.
    const auto match_pair = [&](int i, int j) {
        const uint32_t eid = sg.edgeIdOf(i, j);
        result.obsMask ^= graph_.edgeObsMask(eid);
        weight += graph_.edgeWeight(eid);
        sg.kill(i);
        sg.kill(j);
    };

    const auto creates_singleton = [&](int i, int j) {
        return config_.exactSingletonCheck
                   ? sg.createsSingletonExact(i, j)
                   : sg.createsSingletonHw(i, j);
    };

    ArenaVector<std::pair<int, int>> edges(arena, 64);
    ArenaVector<std::pair<int, int>> isolated(arena, 16);
    ArenaVector<int> singletons(arena, 16);
    // One Step-3 row: partner locals, their detectors, the row's
    // bound per partner and the cells read back.
    ArenaVector<int> partners(arena, 16);
    ArenaVector<uint32_t> partnerDets(arena, 16);
    ArenaVector<Weight> partnerBounds(arena, 16);
    ArenaVector<PathCell> partnerCells(arena, 16);

    int guard = 0;
    while (true) {
        QEC_ASSERT(++guard < 4096, "promatch failed to terminate");
        const int hw = sg.aliveCount();
        if (hw <= target_now(result.cycles)) {
            break;
        }
        edges.clear();
        sg.appendAliveEdges(edges);

        if (!engaged) {
            // Subgraph generation and edge-table loads (§4.2) are
            // charged once when the predecoder engages.
            engaged = true;
            result.cycles += latency_.promatchFixedCycles;
        }
        // Round charge: the pipelines walk every subgraph edge,
        // split across the configured parallel lanes.
        const int lanes = std::max(1, latency_.promatchLanes);
        result.cycles += (static_cast<long long>(edges.size()) +
                          lanes - 1) /
                         lanes;
        ++result.rounds;
        sg.refresh();

        // --- Step 1: isolated pairs, applied as a batch.
        isolated.clear();
        for (const auto &[i, j] : edges) {
            if (sg.degree(i) == 1 && sg.degree(j) == 1) {
                isolated.push_back({i, j});
            }
        }
        if (!isolated.empty()) {
            result.steps.step1 = true;
            for (const auto &[i, j] : isolated) {
                if (sg.aliveCount() <= target_now(result.cycles)) {
                    break;
                }
                match_pair(i, j);
            }
            continue;
        }

        // --- Scan all edges for Step 2 / Step 4 candidates.
        struct Candidate
        {
            Weight weight = kNoEdge;
            int i = -1, j = -1;
        };
        Candidate c21, c22, c41, c42;
        const auto consider = [&](Candidate &c, int i, int j,
                                  Weight w) {
            if (w < c.weight) {
                c = {w, i, j};
            }
        };
        for (const auto &[i, j] : edges) {
            const Weight w = sg.edgeWeightOf(i, j);
            const bool deg1 =
                std::min(sg.degree(i), sg.degree(j)) == 1;
            if (!creates_singleton(i, j)) {
                consider(deg1 ? c21 : c22, i, j, w);
            } else {
                consider(deg1 ? c41 : c42, i, j, w);
            }
        }

        // --- Step 3: singleton rescue via shortest paths, only when
        // no safe Step-2 candidate exists (Algorithm 1). Each
        // singleton's row of path cells is read through
        // readPairCells (a table row, or oracle growth on a
        // DeferPairs table) with the best weight so far as every
        // partner's bound: a path wins only when strictly cheaper,
        // so a cell past the bound can never change the pick.
        struct Step3Candidate
        {
            Weight weight = kNoEdge;
            int singleton = -1;
            int partner = -1; //!< Local index, or -1 for boundary.
            uint64_t obs = 0; //!< Observable parity of the path.
        };
        Step3Candidate c3;
        bool used_step3_scan = false;
        if (config_.enableStep3 && c21.i < 0 && c22.i < 0) {
            singletons.clear();
            for (int i = 0; i < sg.size(); ++i) {
                if (sg.alive(i) && sg.degree(i) == 0) {
                    singletons.push_back(i);
                }
            }
            if (!singletons.empty()) {
                used_step3_scan = true;
                long long paths = 0;
                for (int s : singletons) {
                    // Boundary is always a legal partner.
                    ++paths;
                    const PathCell &bc =
                        paths_.boundaryCell(sg.det(s));
                    if (bc.dist != kNoPath && bc.dist < c3.weight) {
                        c3 = {bc.dist, s, -1, bc.obs};
                    }
                    partners.clear();
                    partnerDets.clear();
                    partnerBounds.clear();
                    partnerCells.clear();
                    for (int i = 0; i < sg.size(); ++i) {
                        if (!sg.alive(i) || i == s) {
                            continue;
                        }
                        ++paths;
                        if (sg.removalCreatesSingleton(i)) {
                            continue;
                        }
                        partners.push_back(i);
                        partnerDets.push_back(sg.det(i));
                        partnerBounds.push_back(c3.weight);
                        partnerCells.push_back(PathCell{});
                    }
                    readPairCells(
                        paths_, workspace.oracle, sg.det(s),
                        {partnerDets.data(), partnerDets.size()},
                        {partnerBounds.data(), partnerBounds.size()},
                        partnerCells.data());
                    for (size_t k = 0; k < partners.size(); ++k) {
                        const PathCell &cell = partnerCells[k];
                        if (cell.dist != kNoPath &&
                            cell.dist < c3.weight) {
                            c3 = {cell.dist, s, partners[k], cell.obs};
                        }
                    }
                }
                // Step-3 charge: the path engine runs beside the
                // edge pipeline (§6.4), also split across lanes.
                const int lanes3 =
                    std::max(1, latency_.promatchLanes);
                result.cycles +=
                    (std::max(paths,
                              static_cast<long long>(
                                  edges.size())) +
                     lanes3 - 1) /
                    lanes3;
            }
        }

        // --- Commit exactly one match, in priority order.
        if (c21.i >= 0) {
            result.steps.step2 = true;
            match_pair(c21.i, c21.j);
        } else if (c22.i >= 0) {
            result.steps.step2 = true;
            match_pair(c22.i, c22.j);
        } else if (used_step3_scan && c3.singleton >= 0) {
            result.steps.step3 = true;
            result.obsMask ^= c3.obs;
            weight += c3.weight;
            sg.kill(c3.singleton);
            if (c3.partner >= 0) {
                sg.kill(c3.partner);
            }
        } else if (config_.enableStep4 && c41.i >= 0) {
            result.steps.step4 = true;
            match_pair(c41.i, c41.j);
        } else if (config_.enableStep4 && c42.i >= 0) {
            result.steps.step4 = true;
            match_pair(c42.i, c42.j);
        } else {
            break; // No candidate anywhere: coverage exhausted.
        }
    }
    result.weight = toNats(weight);

    for (int i = 0; i < sg.size(); ++i) {
        if (sg.alive(i)) {
            rt::pushBack(result.residual, sg.det(i));
        }
    }
}

QEC_REGISTER_PREDECODER(
    promatch,
    "Promatch locality-aware greedy adaptive predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<PromatchPredecoder>(
            context.graph, context.paths, context.latency,
            context.promatch);
    });

} // namespace qec
