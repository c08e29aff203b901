#include "qec/decoders/pipeline.hpp"

#include <algorithm>

#include "qec/decoders/workspace.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

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

    // Low-HW syndromes skip the predecoder entirely (§3) and keep
    // the main decoder's result; any result over the budget aborts
    // (§6.4).
    if (static_cast<int>(defects.size()) <= latency_.astreaMaxHw) {
        DecodeResult result = main_decode(defects);
        if (result.latencyNs > budget_ns) {
            result.aborted = true;
        }
        return result;
    }

    const long long budget_cycles =
        static_cast<long long>(budget_ns / latency_.nsPerCycle);
    // The predecoder writes into the workspace-owned handoff slot;
    // its residual must stay untouched through the nested main
    // decode (main decoders never write predecodeResult).
    PredecodeResult &pre_result = workspace.predecodeResult;
    pre->predecode(defects, budget_cycles, workspace, pre_result);
    const double predecode_ns =
        static_cast<double>(pre_result.cycles) * latency_.nsPerCycle;
    if (trace) {
        trace->predecoderEngaged = true;
        trace->steps = pre_result.steps;
        trace->predecodeRounds = pre_result.rounds;
        trace->predecodeNs = predecode_ns;
    }
    DecodeResult result;
    result.predictedObs = pre_result.obsMask;
    result.weight = pre_result.weight;
    if (pre_result.decodedAll) {
        // An NSM predecoder resolved the syndrome locally.
        result.latencyNs = predecode_ns;
        result.aborted = result.latencyNs > budget_ns;
        return result;
    }
    const bool forwarded = pre_result.forwarded;
    const DecodeResult main_result = main_decode(pre_result.residual);
    // NSM forwarding overlaps the stages (the main decoder already
    // had the unmodified syndrome, Fig. 3(a)); every other handoff
    // serializes them. A result the main decoder took part in is
    // real-time only if the main decoder is.
    result.predictedObs ^= main_result.predictedObs;
    result.weight += main_result.weight;
    result.latencyNs =
        forwarded ? std::max(predecode_ns, main_result.latencyNs)
                  : predecode_ns + main_result.latencyNs;
    result.aborted =
        main_result.aborted || result.latencyNs > budget_ns;
    result.realTime = main_result.realTime;
    return result;
}

} // namespace qec
