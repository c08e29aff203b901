#include "qec/decoders/decoder.hpp"

#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

// Outlined so the audited decode bodies carry one call to a symbol
// the allowlist exempts: clearing `children` destroys whole child
// traces (heap-backed vectors), which is trace-path-only work that
// must not inline delete relocations into hot decode bodies.
QEC_RT_OUTLINE void
DecodeTrace::reset()
{
    predecoderEngaged = false;
    hwBefore = 0;
    hwAfter = 0;
    predecodeNs = 0.0;
    mainNs = 0.0;
    steps = {};
    predecodeRounds = 0;
    parallelWinner = -1;
    searchStates = 0;
    searchTruncated = false;
    chainLengths.clear();
    correctionEdges.clear();
    children.clear();
}

void
scatterBlockLanes(std::span<const uint64_t> detectorWords,
                  uint64_t laneMask,
                  std::array<std::vector<uint32_t>, 64> &lanes)
{
    forEachSetBit(laneMask, [&](int lane) { lanes[lane].clear(); });
    // One countr_zero walk over the detector-major words: work
    // proportional to the number of defects, not 64 x #detectors.
    // Buckets stay detector-ascending because det ascends here.
    for (size_t det = 0; det < detectorWords.size(); ++det) {
        forEachSetBit(detectorWords[det] & laneMask, [&](int lane) {
            rt::pushBack(lanes[lane],
                         static_cast<uint32_t>(det));
        });
    }
}

void
Decoder::decodeBlock(std::span<const uint64_t> detectorWords,
                     int lanes, DecodeWorkspace &workspace,
                     DecodeResult *results)
{
    QEC_REALTIME;
    QEC_ASSERT(lanes >= 1 && lanes <= 64,
               "decodeBlock lane count must be in [1, 64]");
    scatterBlockLanes(detectorWords, laneMask64(lanes),
                      workspace.block.laneDefects);
    for (int lane = 0; lane < lanes; ++lane) {
        results[lane] = decode(workspace.block.laneDefects[lane],
                               workspace, nullptr);
    }
}

WorkerDecoders::WorkerDecoders(Decoder &source, int workers)
    : source_(source)
{
    workspaces_.push_back(std::make_unique<DecodeWorkspace>());
    for (int w = 1; w < workers; ++w) {
        clones_.push_back(source.clone());
        workspaces_.push_back(
            std::make_unique<DecodeWorkspace>());
    }
}

WorkerDecoders::~WorkerDecoders() = default;

} // namespace qec
