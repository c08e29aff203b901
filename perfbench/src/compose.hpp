/**
 * @file
 * The traced run's outside view of the decode stack. ComposedPipeline
 * replays PredecodedDecoder::decode from its public parts — the
 * astreaMaxHw dispatch, Predecoder::predecode, then the main decoder
 * (or, for a sparse main decoder, SparseMatchingProblem::build and
 * SparseMatcher::solve) — with a span around every layer call. The
 * callers compare each composed result with the pipeline's own
 * decode(), so this mirror cannot drift from pipeline.cpp unnoticed.
 *
 * Also here: the staged set-up (each ExperimentContext stage timed on
 * its own) and the per-layer metrics derived from recorded spans.
 */

#ifndef PERFBENCH_COMPOSE_HPP
#define PERFBENCH_COMPOSE_HPP

#include <memory>
#include <span>
#include <string>

#include "qec/decoders/pipeline.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/matching/sparse_matcher.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace perfbench
{

/** Span name ids; spanNames() gives their printed names. */
enum SpanName : uint32_t
{
    kSampleRoot,    //!< One LER sample, end to end (root).
    kSetup,         //!< Staged set-up (root).
    kSurface,       //!< Layout + noisy circuit.
    kDem,           //!< Detector error model + graphlike split.
    kDecodingGraph, //!< DecodingGraph::fromDem.
    kPathTable,     //!< PathTable (dense or DeferPairs).
    kDecoderBuild,  //!< Decoder stack from its spec string.
    kHarnessSample, //!< ImportanceSampler::sample.
    kPipeline,      //!< Composed full-stack decode.
    kPredecode,     //!< Predecoder::predecode.
    kMatch,         //!< Main decoder on the handoff.
    kProblemBuild,  //!< SparseMatchingProblem::build.
    kSolve,         //!< SparseMatcher::solve.
    kStreamRun,     //!< One stream through StreamingDecoder (root).
    kNumSpanNames
};

std::vector<std::string> spanNames();

/** Work counted at the layer boundaries of the composed path. */
struct LayerCounters
{
    uint64_t decodes = 0;       //!< Composed pipeline decodes.
    uint64_t engaged = 0;       //!< Predecoder ran (HW > max).
    uint64_t hwIn = 0;          //!< Input HW over engaged decodes.
    uint64_t hwOut = 0;         //!< Residual HW over engaged decodes.
    uint64_t localResolved = 0; //!< Engaged, nothing left to match.
    uint64_t rounds = 0;        //!< Predecode rounds, engaged only.
    uint64_t aborted = 0;       //!< Composed results marked aborted.
    uint64_t problems = 0;      //!< Sparse matching problems built.
    uint64_t problemDefects = 0;
    uint64_t candidates = 0;    //!< Kept candidate pairs.
};

class ComposedPipeline
{
  public:
    /** Mirrors `stack` (kept alive by the caller). */
    explicit ComposedPipeline(qec::PredecodedDecoder &stack);

    qec::DecodeResult decode(std::span<const uint32_t> defects,
                             qec::DecodeWorkspace &workspace,
                             SpanRecorder &rec, uint64_t id,
                             LayerCounters &counters);

  private:
    qec::DecodeResult match(std::span<const uint32_t> defects,
                            qec::DecodeWorkspace &workspace,
                            SpanRecorder &rec, uint64_t id,
                            LayerCounters &counters);

    qec::PredecodedDecoder &stack_;
    const qec::PathTable &paths_;
    bool sparse_;
    qec::SparseMatchingProblem problem_;
    qec::SparseMatcher matcher_;
    qec::MatchingSolution solution_;
};

/** Bit-identity of the fields the LER engine and server consume. */
inline bool
sameResult(const qec::DecodeResult &a, const qec::DecodeResult &b)
{
    return a.predictedObs == b.predictedObs && a.weight == b.weight &&
           a.aborted == b.aborted;
}

/**
 * Build the set-up stages one at a time under spans (surface,
 * dem, graph, path table, decoder build) and report their times
 * as the per-layer set-up metrics. The stages are discarded; the
 * run keeps using its own ExperimentContext.
 */
void traceSetupStages(int distance, double p, bool deferred,
                      const std::string &spec, SpanRecorder &rec,
                      Report &report);

/**
 * Per-layer metrics of the decode layers from the recorded spans
 * and counters: per-call means and p99s, predecoder useful-work
 * ratios, sparse-matching sizes, and each layer's self-time share
 * of `wallNs` (the traced pass's wall time).
 */
void reportDecodeLayers(const SpanRecorder &rec,
                        const LayerCounters &counters,
                        double wallNs, Report &report);

/** Add zero-valued metrics for layers a workload does not run. */
void reportNotExercised(Report &report,
                        std::initializer_list<const char *> names,
                        const std::string &unit);

} // namespace perfbench

#endif // PERFBENCH_COMPOSE_HPP
