#include "qec/serve/streaming.hpp"

#include <algorithm>

#include "qec/util/assert.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

StreamingDecoder::StreamingDecoder(Decoder &decoder,
                                   int detectorsPerRound,
                                   StreamingConfig config)
    : decoder_(decoder),
      detectorsPerRound_(detectorsPerRound), config_(config),
      numDetectors_(decoder.graph().numDetectors())
{
    QEC_ASSERT(detectorsPerRound >= 1,
               "detectorsPerRound must be positive");
    QEC_ASSERT(config.commitRounds >= 1,
               "commitRounds must be positive");
    QEC_ASSERT(config.guardRounds >= 1,
               "guardRounds must be positive");
    QEC_ASSERT(
        config.windowRounds >=
            config.commitRounds + config.guardRounds,
        "windowRounds must cover commitRounds + guardRounds: a "
        "committed cluster must end more than guardRounds layers "
        "before any defect the stream has yet to deliver");
    QEC_ASSERT(config.forceCommitDefects >= 1,
               "forceCommitDefects must be positive");
}

DecodeStatus
StreamingDecoder::poison(DecodeStatus status)
{
    status_ = status;
    ++stats_.malformedLayers;
    return status;
}

DecodeStatus
StreamingDecoder::pushLayer(std::span<const uint32_t> defects)
{
    if (status_ != DecodeStatus::kOk) {
        // Poisoned stream: refuse everything until reset() so a bad
        // layer cannot half-corrupt the window invariants.
        return status_;
    }
    // Validate the full span before buffering any of it, not just
    // its endpoints: a mid-span defect from the wrong layer (or an
    // unsorted pair) would silently corrupt the window's
    // ascending-id invariant that every split computation below
    // relies on. Layer data crosses the trust boundary (it arrives
    // through the serve layer), so failures are recoverable
    // statuses, never aborts.
    for (size_t i = 0; i < defects.size(); ++i) {
        if (defects[i] >= numDetectors_) {
            return poison(DecodeStatus::kDetectorOutOfRange);
        }
        if (layerOf(defects[i]) != pushedLayers_ ||
            (i > 0 && defects[i] <= defects[i - 1])) {
            return poison(DecodeStatus::kMalformedStream);
        }
    }
    rt::appendRange(window_, defects.begin(), defects.end());
    stats_.defectsSeen += defects.size();
    ++pushedLayers_;
    while (pushedLayers_ >= winStart_ + config_.windowRounds) {
        processWindow();
    }
    return DecodeStatus::kOk;
}

void
StreamingDecoder::processWindow()
{
    ++stats_.windows;
    stats_.maxWindowDefects =
        std::max(stats_.maxWindowDefects,
                 static_cast<uint64_t>(window_.size()));

    // Everything below the commit boundary is a candidate commit;
    // the suffix from the boundary on is carried by definition.
    const uint32_t boundary = static_cast<uint32_t>(
        (winStart_ + config_.commitRounds) *
        static_cast<int64_t>(detectorsPerRound_));
    const size_t boundarySplit = static_cast<size_t>(
        std::lower_bound(window_.begin(), window_.end(), boundary) -
        window_.begin());

    // Chain the carried set backward: a committed cluster must be
    // separated from every carried defect by more than guardRounds
    // layers, so keep pulling the split down while the gap closes.
    size_t split = boundarySplit;
    while (split > 0 && split < window_.size() &&
           layerOf(window_[split - 1]) + config_.guardRounds >=
               layerOf(window_[split])) {
        --split;
    }

    if (split == 0 && window_.size() >=
                          static_cast<size_t>(
                              config_.forceCommitDefects)) {
        // One cluster has swallowed the whole window and keeps
        // growing; cut it to bound latency. The boundary prefix is
        // the natural cut, but when the cluster sits entirely past
        // the boundary (boundarySplit == 0) that cut would commit
        // nothing and the buffer would grow forever — so always
        // drain at least the oldest buffered layer. When
        // boundarySplit > 0 the layer cut is a subset of it and the
        // cut is unchanged.
        const uint32_t first_layer_end = static_cast<uint32_t>(
            (layerOf(window_.front()) + 1) *
            static_cast<int64_t>(detectorsPerRound_));
        const size_t layerSplit = static_cast<size_t>(
            std::lower_bound(window_.begin(), window_.end(),
                             first_layer_end) -
            window_.begin());
        split = std::max(boundarySplit, layerSplit);
        ++stats_.forcedCommits; // split >= 1: this always commits
    }

    if (split > 0) {
        // commit = decode(window) XOR decode(carried): the carried
        // cluster's contribution cancels out and is re-decoded by
        // whichever window finally closes it.
        const DecodeResult all =
            decoder_.decode(window_, workspace_);
        ++stats_.decodes;
        aborted_ = aborted_ || all.aborted;
        uint64_t carriedObs = 0;
        if (split < window_.size()) {
            const DecodeResult carried = decoder_.decode(
                std::span<const uint32_t>(window_.data() + split,
                                          window_.size() - split),
                workspace_);
            ++stats_.decodes;
            aborted_ = aborted_ || carried.aborted;
            carriedObs = carried.predictedObs;
        }
        committedObs_ ^= all.predictedObs ^ carriedObs;
        stats_.defectsCarried += window_.size() - split;
        window_.erase(window_.begin(),
                      window_.begin() +
                          static_cast<ptrdiff_t>(split));
    }
    // split == 0: the whole window is one open carried cluster —
    // commit nothing (decode(window) XOR decode(window) == 0) and
    // let the slide bring in the defects that close it.

    winStart_ += config_.commitRounds;
}

void
StreamingDecoder::finish()
{
    if (status_ != DecodeStatus::kOk) {
        // A poisoned stream's buffered prefix is not worth
        // committing: the request failed as a unit.
        return;
    }
    // pushLayer already processed every complete window; whatever
    // is buffered now is the stream's tail — commit it whole.
    if (!window_.empty()) {
        stats_.maxWindowDefects =
            std::max(stats_.maxWindowDefects,
                     static_cast<uint64_t>(window_.size()));
        const DecodeResult tail =
            decoder_.decode(window_, workspace_);
        ++stats_.decodes;
        aborted_ = aborted_ || tail.aborted;
        committedObs_ ^= tail.predictedObs;
        window_.clear();
    }
}

void
StreamingDecoder::reset()
{
    window_.clear(); // Keeps capacity: warm instances stay heap-free.
    pushedLayers_ = 0;
    winStart_ = 0;
    committedObs_ = 0;
    aborted_ = false;
    status_ = DecodeStatus::kOk;
    stats_ = {};
}

StreamDecodeOutcome
StreamingDecoder::runChecked(const SyndromeStream &stream)
{
    reset();
    StreamDecodeOutcome out;
    // Structural validation before replaying a single layer: the
    // CSR must be self-consistent or layer() spans would read out
    // of bounds. None of these checks allocates, so the serve hot
    // path stays heap-free.
    bool wellFormed =
        stream.detectorsPerRound == detectorsPerRound_ &&
        stream.rounds >= 0 &&
        stream.layerOffsets.size() ==
            static_cast<size_t>(stream.layers()) + 1 &&
        stream.layerOffsets.front() == 0 &&
        stream.layerOffsets.back() == stream.defects.size();
    for (int l = 0; wellFormed && l < stream.layers(); ++l) {
        wellFormed = stream.layerOffsets[l] <=
                     stream.layerOffsets[l + 1];
    }
    if (!wellFormed) {
        out.status = poison(DecodeStatus::kMalformedStream);
        return out;
    }
    for (int l = 0; l < stream.layers(); ++l) {
        if (pushLayer(stream.layer(l)) != DecodeStatus::kOk) {
            break;
        }
    }
    finish();
    out.committedObs =
        status_ == DecodeStatus::kOk ? committedObs_ : 0;
    out.status = status_;
    out.aborted = aborted_;
    return out;
}

uint64_t
StreamingDecoder::run(const SyndromeStream &stream)
{
    const StreamDecodeOutcome out = runChecked(stream);
    QEC_ASSERT(out.status == DecodeStatus::kOk,
               "run() requires a well-formed stream; use "
               "runChecked() on untrusted input");
    return out.committedObs;
}

} // namespace qec
