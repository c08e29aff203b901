#include "qec/decoders/pipeline.hpp"

#include <algorithm>

#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** One syndrome's predecode outcome, as the composition reads it. */
struct StageOutcome
{
    uint64_t obsMask;
    double weight;
    double predecodeNs;
    bool decodedAll;
    bool forwarded;
};

/**
 * The composition rule of one syndrome, shared by decode() and
 * decodeBlock() so both paths agree bit for bit. `pre` is null for
 * a low-HW syndrome, which skips the predecoder (§3) and keeps the
 * main decoder's result. `mainDecode()` runs the main decoder on the
 * residual; it is not called when an NSM predecoder resolved the
 * syndrome locally. NSM forwarding overlaps the stages (the main
 * decoder already had the unmodified syndrome, Fig. 3(a)), every
 * other handoff serializes them, and any result over the budget
 * aborts (§6.4). A result the main decoder took part in is real-time
 * only if the main decoder is.
 */
template <class MainDecode>
inline DecodeResult
composeStages(const StageOutcome *pre, double budget_ns,
              MainDecode &&mainDecode)
{
    if (pre == nullptr) {
        DecodeResult result = mainDecode();
        if (result.latencyNs > budget_ns) {
            result.aborted = true;
        }
        return result;
    }
    DecodeResult result;
    if (pre->decodedAll) {
        result.predictedObs = pre->obsMask;
        result.weight = pre->weight;
        result.latencyNs = pre->predecodeNs;
        result.aborted = result.latencyNs > budget_ns;
        return result;
    }
    const DecodeResult main_result = mainDecode();
    result.predictedObs = pre->obsMask ^ main_result.predictedObs;
    result.weight = pre->weight + main_result.weight;
    result.latencyNs =
        pre->forwarded
            ? std::max(pre->predecodeNs, main_result.latencyNs)
            : pre->predecodeNs + main_result.latencyNs;
    result.aborted =
        main_result.aborted || result.latencyNs > budget_ns;
    result.realTime = main_result.realTime;
    return result;
}

} // namespace

DecodeResult
PredecodedDecoder::decode(std::span<const uint32_t> defects,
                          DecodeWorkspace &workspace,
                          DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        trace->reset();
        trace->hwBefore = static_cast<int>(defects.size());
    }
    const double budget_ns = latency_.effectiveBudgetNs();
    // Runs the main decoder on `input`, recording its trace as
    // children[0] and hoisting its chain lengths.
    const auto main_decode = [&](std::span<const uint32_t> input) {
        DecodeTrace *child =
            trace ? &rt::emplaceBack(trace->children) : nullptr;
        const DecodeResult result =
            main_->decode(input, workspace, child);
        if (trace) {
            trace->hwAfter = static_cast<int>(input.size());
            trace->mainNs = result.latencyNs;
            // Swap, not move-assign (no inline free; see parallel.cpp).
            std::swap(trace->chainLengths, child->chainLengths);
        }
        return result;
    };

    // Low-HW syndromes skip the predecoder entirely (§3).
    if (static_cast<int>(defects.size()) <= latency_.astreaMaxHw) {
        return composeStages(nullptr, budget_ns,
                             [&] { return main_decode(defects); });
    }

    const long long budget_cycles =
        static_cast<long long>(budget_ns / latency_.nsPerCycle);
    // The predecoder writes into the workspace-owned handoff slot;
    // its residual must stay untouched through the nested main
    // decode (main decoders never write predecodeResult).
    PredecodeResult &pre_result = workspace.predecodeResult;
    pre->predecode(defects, budget_cycles, workspace, pre_result);
    const StageOutcome outcome{
        pre_result.obsMask, pre_result.weight,
        static_cast<double>(pre_result.cycles) * latency_.nsPerCycle,
        pre_result.decodedAll, pre_result.forwarded};
    if (trace) {
        trace->predecoderEngaged = true;
        trace->steps = pre_result.steps;
        trace->predecodeRounds = pre_result.rounds;
        trace->predecodeNs = outcome.predecodeNs;
    }
    return composeStages(&outcome, budget_ns, [&] {
        return main_decode(pre_result.residual);
    });
}

void
PredecodedDecoder::decodeBlock(std::span<const uint64_t> detectorWords,
                               int lanes, DecodeWorkspace &workspace,
                               DecodeResult *results)
{
    QEC_REALTIME;
    QEC_ASSERT(lanes >= 1 && lanes <= 64,
               "decodeBlock lane count must be in [1, 64]");
    const uint64_t laneMask = laneMask64(lanes);
    BlockScratch &block = workspace.block;
    scatterBlockLanes(detectorWords, laneMask, block.laneDefects);

    // Engaged lanes (HW above the threshold) take the predecoder;
    // the rest go straight to the main decoder, as in decode().
    uint64_t engagedMask = 0;
    for (int lane = 0; lane < lanes; ++lane) {
        if (static_cast<int>(block.laneDefects[lane].size()) >
            latency_.astreaMaxHw) {
            engagedMask |= uint64_t{1} << lane;
        }
    }
    const long long budget_cycles = static_cast<long long>(
        latency_.effectiveBudgetNs() / latency_.nsPerCycle);
    BlockPredecodeResult &pre_result = block.pre;
    if (engagedMask != 0) {
        // One call carries every engaged lane through the
        // predecoder's word kernel together. May clobber the
        // engaged laneDefects buckets; they are rebuilt from the
        // residual lists below. Low lanes' buckets stay intact.
        pre->predecodeBlock(detectorWords, engagedMask,
                            budget_cycles, workspace, pre_result);
    } else {
        pre_result.reset();
    }

    // Lane compaction: rebuild the engaged buckets as main-decode
    // inputs from the sparse residual lists (detector-ascending, so
    // each bucket comes back sorted). Fully resolved lanes end up
    // with empty buckets and never reach the matcher.
    forEachSetBit(engagedMask,
                  [&](int lane) { block.laneDefects[lane].clear(); });
    for (size_t r = 0; r < pre_result.residualDets.size(); ++r) {
        const uint32_t det = pre_result.residualDets[r];
        forEachSetBit(pre_result.residualWords[r], [&](int lane) {
            rt::pushBack(block.laneDefects[lane], det);
        });
    }

    // Shared distance gather: when the union of all main-decode
    // inputs is cheaper to gather once (U^2 cells) than per-lane
    // (sum of s_l^2 cells), pre-gather it so every lane's problem
    // builder resolves as a subset of one block (bit-identical: the
    // view holds bit-copies of the PathTable either way).
    block.touched.clear();
    rt::resizeFill(block.laneWords, detectorWords.size(),
                   uint64_t{0});
    size_t sum_sq = 0;
    const uint64_t mainMask =
        laneMask & ~(engagedMask & pre_result.decodedAllMask);
    forEachSetBit(mainMask, [&](int lane) {
        const std::vector<uint32_t> &input = block.laneDefects[lane];
        sum_sq += input.size() * input.size();
        for (uint32_t det : input) {
            if (block.laneWords[det] == 0) {
                rt::pushBack(block.touched, det);
            }
            block.laneWords[det] = 1;
        }
    });
    const size_t u = block.touched.size();
    if (u > 0 && u * u <= sum_sq && main_->wantsDistanceView()) {
        std::sort(block.touched.begin(), block.touched.end());
        rt::assignRange(block.unionDets, block.touched.begin(),
                        block.touched.end());
        workspace.distances.gather(paths_, block.unionDets);
    }
    for (uint32_t det : block.touched) {
        block.laneWords[det] = 0;
    }

    // Per-lane compose through the same rule as decode(). Lanes the
    // predecoder fully prematched share one cached empty-input main
    // decode (the main decoder is deterministic and stateless
    // per-call, so the first result stands in for all of them).
    DecodeResult empty_main;
    bool have_empty_main = false;
    const double budget_ns = latency_.effectiveBudgetNs();
    for (int lane = 0; lane < lanes; ++lane) {
        const uint64_t bit = uint64_t{1} << lane;
        const std::vector<uint32_t> &input = block.laneDefects[lane];
        if ((bit & engagedMask) == 0) {
            results[lane] = composeStages(nullptr, budget_ns, [&] {
                return main_->decode(input, workspace, nullptr);
            });
            continue;
        }
        const auto residual_decode = [&] {
            if (!input.empty()) {
                return main_->decode(input, workspace, nullptr);
            }
            if (!have_empty_main) {
                empty_main = main_->decode(input, workspace, nullptr);
                have_empty_main = true;
            }
            return empty_main;
        };
        const StageOutcome outcome{
            pre_result.obsMask[lane], pre_result.weight[lane],
            static_cast<double>(pre_result.cycles[lane]) *
                latency_.nsPerCycle,
            (bit & pre_result.decodedAllMask) != 0,
            (bit & pre_result.forwardedMask) != 0};
        results[lane] =
            composeStages(&outcome, budget_ns, residual_decode);
    }
}

} // namespace qec
