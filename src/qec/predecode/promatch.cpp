#include "qec/predecode/promatch.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
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
    // Step 3 consults defect-to-defect shortest paths through the
    // workspace's gathered S×S block (local indices coincide with
    // the subgraph's). The gather is lazy — most syndromes resolve
    // in Steps 1/2 and never touch a path — and idempotent across
    // rounds. When it does fire, the pipeline's main decoder later
    // resolves its residual as a subset of the same block.
    DistanceView &dv = workspace.distances;
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
        // no safe Step-2 candidate exists (Algorithm 1).
        struct Step3Candidate
        {
            Weight weight = kNoEdge;
            int singleton = -1;
            int partner = -1; //!< Local index, or -1 for boundary.
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
                dv.gather(paths_, defects);
                long long paths = 0;
                for (int s : singletons) {
                    // Boundary is always a legal partner. All path
                    // lookups below hit the gathered dense block
                    // (bit-copies of the PathTable).
                    ++paths;
                    const uint32_t bw = dv.distToBoundary(s);
                    if (bw != kNoPath && bw < c3.weight) {
                        c3 = {bw, s, -1};
                    }
                    for (int i = 0; i < sg.size(); ++i) {
                        if (!sg.alive(i) || i == s) {
                            continue;
                        }
                        ++paths;
                        if (sg.removalCreatesSingleton(i)) {
                            continue;
                        }
                        const uint32_t w = dv.dist(s, i);
                        if (w != kNoPath && w < c3.weight) {
                            c3 = {w, s, i};
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
            if (c3.partner < 0) {
                result.obsMask ^= dv.boundaryObs(c3.singleton);
                weight += c3.weight;
                sg.kill(c3.singleton);
            } else {
                result.obsMask ^=
                    dv.obs(c3.singleton, c3.partner);
                weight += c3.weight;
                sg.kill(c3.singleton);
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
