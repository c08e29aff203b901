#include "qec/predecode/predecoder.hpp"

#include <algorithm>

#include "qec/decoders/workspace.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
Predecoder::predecodeBlock(std::span<const uint64_t> detectorWords,
                           uint64_t laneMask, long long cycle_budget,
                           DecodeWorkspace &workspace,
                           BlockPredecodeResult &result)
{
    QEC_REALTIME;
    // Serial fallback: loop every requested lane through the scalar
    // path — bit-identical by construction. Word kernels override
    // this (Pinball/Smith/Clique).
    result.reset();
    result.laneMask = laneMask;
    if (laneMask == 0) {
        return;
    }
    BlockScratch &block = workspace.block;
    scatterBlockLanes(detectorWords, laneMask, block.laneDefects);
    // Merge the per-lane residual lists into the sparse column
    // layout via the dense laneWords scratch (all-zero invariant:
    // every entry set here is cleared again below).
    rt::resizeFill(block.laneWords, detectorWords.size(),
                   uint64_t{0});
    block.touched.clear();
    PredecodeResult &lane_result = workspace.predecodeResult;
    forEachSetBit(laneMask, [&](int lane) {
        predecode(block.laneDefects[lane], cycle_budget, workspace,
                  lane_result);
        const uint64_t bit = uint64_t{1} << lane;
        result.obsMask[lane] = lane_result.obsMask;
        result.weight[lane] = lane_result.weight;
        result.cycles[lane] = lane_result.cycles;
        result.rounds[lane] = lane_result.rounds;
        if (lane_result.decodedAll) {
            result.decodedAllMask |= bit;
        }
        if (lane_result.forwarded) {
            result.forwardedMask |= bit;
        }
        for (uint32_t det : lane_result.residual) {
            if (block.laneWords[det] == 0) {
                rt::pushBack(block.touched, det);
            }
            block.laneWords[det] |= bit;
        }
    });
    std::sort(block.touched.begin(), block.touched.end());
    for (uint32_t det : block.touched) {
        rt::pushBack(result.residualDets, det);
        rt::pushBack(result.residualWords, block.laneWords[det]);
        block.laneWords[det] = 0;
    }
}

} // namespace qec
