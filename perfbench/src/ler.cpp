/**
 * @file
 * The importance-sampled LER workloads (ler_d11, ler_d17_deferred).
 *
 * Timed run: set-up three times (median), then rounds that alternate
 * fixed-size estimateLer chunks at 2 workers (samples/s per chunk)
 * with blocks of serial decode() calls timed one by one (per-block
 * p50 and p99), and last the 1-worker gate on the first chunk.
 *
 * Traced run (single-threaded apart from the 2-worker efficiency
 * probe): staged set-up, a reference pass through the stack's own
 * decode(), the composed pass with spans around every layer call
 * (checked sample by sample against the reference), interleaved
 * with the same pass with recording off (tracing overhead), and a
 * 64-lane block pass.
 */

#include <bit>
#include <memory>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"

#include "compose.hpp"

namespace perfbench
{

namespace
{

struct LerWorkload
{
    const char *name;
    int distance;
    double p;
    bool deferred;
    const char *spec;
    int kMin, kMax;
    /** estimateLer samplesPerK of one timed chunk. */
    uint64_t chunkPerK;
    /** Serial decodes per latency block (>= 1000, so each block's
     *  p99 keeps 10 samples beyond it). */
    uint64_t latencyBlock;
    /** Target length of one measurement round. */
    double roundS;
};

// Sized on a 4-CPU x86 host: a chunk takes ~0.25 s at 2 workers and a
// latency block 0.15 s (d = 11) or 1.4 s (d = 17), so a 15 s run
// takes the median over dozens of chunks and several blocks. Each
// round runs on a fresh thread (see onFreshThread).
constexpr LerWorkload kWorkloads[] = {
    {"ler_d11", 11, 1e-4, false, "promatch+astrea", 1, 24, 2000,
     24000, 1.2},
    {"ler_d17_deferred", 17, 1e-4, true, "promatch+sparse", 3, 12, 30,
     1000, 3.0},
};

constexpr int kWorkers = 2;
constexpr int kSetupRepeats = 3;
/** Cap on traced samples: bounds span memory and the span file. */
constexpr uint64_t kMaxTracedSamples = 50000;
/** Samples per traced/untraced alternation of the overhead probe. */
constexpr uint64_t kOverheadChunk = 256;

struct Stack
{
    std::unique_ptr<qec::ExperimentContext> ctx;
    std::unique_ptr<qec::Decoder> decoder;
};

Stack
buildStack(const LerWorkload &w)
{
    Stack s;
    s.ctx = std::make_unique<qec::ExperimentContext>(
        w.distance, w.p, -1, w.deferred);
    s.decoder = qec::build(qec::DecoderSpec::parse(w.spec),
                           s.ctx->graph(), s.ctx->paths());
    return s;
}

/** Sample id -> (k, i) with k cycling fastest, so any prefix of the
 *  sequence covers the workload's k range evenly. */
struct SampleSequence
{
    const qec::ImportanceSampler &sampler;
    uint64_t seed;
    int kMin, kMax;

    void
    draw(uint64_t id, qec::ImportanceSampler::Sample &out) const
    {
        const uint64_t nk = static_cast<uint64_t>(kMax - kMin + 1);
        const int k = kMin + static_cast<int>(id % nk);
        qec::Rng rng = qec::Rng::forSample(
            seed, static_cast<uint64_t>(k), id / nk);
        sampler.sample(k, rng, out);
    }
};

qec::LerOptions
chunkOptions(const LerWorkload &w, uint64_t seed, int threads,
             uint64_t perK)
{
    qec::LerOptions o;
    o.kMax = w.kMax;
    o.skipBelowK = w.kMin;
    o.samplesPerK = perK;
    o.seed = seed;
    o.threads = threads;
    return o;
}

uint64_t
decodedSamples(const qec::LerEstimate &e)
{
    uint64_t n = 0;
    for (const qec::KStats &k : e.perK) {
        n += k.samples;
    }
    return n;
}

/** Samples of the k-batches on which two estimates disagree (all of
 *  them if the LERs differ). */
uint64_t
divergentSamples(const qec::LerEstimate &a, const qec::LerEstimate &b)
{
    if (a.perK.size() != b.perK.size() || a.ler != b.ler) {
        return std::max<uint64_t>(1, decodedSamples(a));
    }
    uint64_t bad = 0;
    for (size_t k = 0; k < a.perK.size(); ++k) {
        if (a.perK[k].samples != b.perK[k].samples ||
            a.perK[k].failures != b.perK[k].failures) {
            bad += std::max(a.perK[k].samples, uint64_t{1});
        }
    }
    return bad;
}

std::string
chunkNote(const LerWorkload &w, size_t chunks)
{
    return "estimateLer " + std::string(w.spec) + " at " +
           std::to_string(kWorkers) + " workers; " +
           std::to_string(chunks) + " chunks of " +
           std::to_string(w.chunkPerK) + "/k, k=" +
           std::to_string(w.kMin) + ".." + std::to_string(w.kMax);
}

void
runTimed(const LerWorkload &w, const Args &args, Stack &stack,
         Report &report)
{
    const qec::ExperimentContext &ctx = *stack.ctx;
    qec::Decoder &decoder = *stack.decoder;

    // Warm-up: worker clones, workspaces and caches reach steady
    // state before anything is timed.
    qec::estimateLer(ctx, decoder,
                     chunkOptions(w, deriveSeed(args.seed, 1),
                                  kWorkers,
                                  std::max<uint64_t>(1,
                                                     w.chunkPerK / 4)));

    // Measurement rounds: estimateLer chunks at 2 workers for half a
    // round, then one block of serial decode() calls timed one by
    // one, until 85% of the run has passed.
    const qec::ImportanceSampler sampler(ctx.dem(), w.kMax);
    const SampleSequence seq{sampler, deriveSeed(args.seed, 2), w.kMin,
                             w.kMax};
    qec::DecodeWorkspace workspace;
    qec::ImportanceSampler::Sample sample;
    std::vector<double> rates, blockP50, blockP99, blockUs;
    blockUs.reserve(w.latencyBlock);
    qec::LerEstimate first;
    uint64_t chunk = 0, nextId = 0;
    const int64_t runEnd =
        nowNs() + static_cast<int64_t>(0.85 * args.seconds * 1e9);
    for (int round = 0; round < 3 || nowNs() < runEnd; ++round) {
        onFreshThread([&] {
            const int64_t chunksEnd =
                nowNs() + static_cast<int64_t>(0.5 * w.roundS * 1e9);
            do {
                const qec::LerOptions o =
                    chunkOptions(w, deriveSeed(args.seed, 1000 + chunk),
                                 kWorkers, w.chunkPerK);
                const int64_t t0 = nowNs();
                qec::LerEstimate est = qec::estimateLer(ctx, decoder, o);
                const double dt = secondsSince(t0);
                rates.push_back(static_cast<double>(decodedSamples(est)) /
                                dt);
                if (chunk++ == 0) {
                    first = std::move(est);
                }
            } while (nowNs() < chunksEnd);

            blockUs.clear();
            for (uint64_t i = 0; i < w.latencyBlock; ++i, ++nextId) {
                seq.draw(nextId, sample);
                const int64_t t0 = nowNs();
                decoder.decode(sample.defects, workspace);
                blockUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            }
            std::sort(blockUs.begin(), blockUs.end());
            blockP50.push_back(medianOfSorted(blockUs));
            blockP99.push_back(tailPercentile(blockUs, 0.99).value);
        });
    }
    report.add("throughput_per_s", "1/s", summarize(rates),
               "samples/s: " + chunkNote(w, rates.size()));
    const std::string blocks =
        std::to_string(blockP50.size()) + " blocks of " +
        std::to_string(w.latencyBlock) + " serial decode() calls";
    report.add("latency_p50_us", "us", summarize(blockP50),
               "per-block p50, " + blocks);
    report.add("latency_p99_us", "us", summarize(blockP99),
               "per-block p99 (>= 10 beyond each), " + blocks);

    // Gate: the first chunk again at 1 worker must match exactly.
    const qec::LerEstimate serial = qec::estimateLer(
        ctx, decoder,
        chunkOptions(w, deriveSeed(args.seed, 1000), 1, w.chunkPerK));
    const uint64_t divergent = divergentSamples(first, serial);
    report.count(decodedSamples(first), divergent);
    if (divergent) {
        report.fail("estimateLer at 2 workers differs from 1 worker");
    }
}

void
runTraced(const LerWorkload &w, const Args &args, Stack &stack,
          Report &report)
{
    const qec::ExperimentContext &ctx = *stack.ctx;
    qec::Decoder &decoder = *stack.decoder;
    auto *pipeline = dynamic_cast<qec::PredecodedDecoder *>(&decoder);
    if (!pipeline) {
        report.fail(std::string(w.spec) + " is not a predecoder stack");
        return;
    }
    const double S = args.seconds;
    SpanRecorder rec(spanNames(), 7 * kMaxTracedSamples + 64);
    traceSetupStages(w.distance, w.p, w.deferred, w.spec, rec, report);

    // Parallel efficiency: 2-worker vs 1-worker chunks, alternated.
    std::vector<double> one, two;
    const int64_t effEnd = nowNs() + static_cast<int64_t>(0.2 * S * 1e9);
    for (uint64_t r = 0; one.size() < 2 || nowNs() < effEnd; ++r) {
        for (int threads : {1, kWorkers}) {
            const qec::LerOptions o = chunkOptions(
                w, deriveSeed(args.seed, 1000 + r), threads,
                w.chunkPerK);
            const int64_t t0 = nowNs();
            const qec::LerEstimate est =
                qec::estimateLer(ctx, decoder, o);
            (threads == 1 ? one : two)
                .push_back(static_cast<double>(decodedSamples(est)) /
                           secondsSince(t0));
        }
    }
    const double serialRate = medianOf(one);
    report.add("harness.parallel_efficiency", "ratio",
               medianOf(two) / (kWorkers * serialRate),
               "samples/s at 2 workers / (2 x " +
                   std::to_string(static_cast<long>(serialRate)) +
                   " samples/s at 1 worker)");

    // Reference pass through the stack's own decode().
    const qec::ImportanceSampler sampler(ctx.dem(), w.kMax);
    const SampleSequence seq{sampler, deriveSeed(args.seed, 3), w.kMin,
                             w.kMax};
    qec::ImportanceSampler::Sample sample;
    qec::DecodeWorkspace refWorkspace;
    std::vector<qec::DecodeResult> reference;
    const int64_t refEnd = nowNs() + static_cast<int64_t>(0.15 * S * 1e9);
    for (uint64_t id = 0; reference.size() < kMaxTracedSamples; ++id) {
        seq.draw(id, sample);
        reference.push_back(
            pipeline->decode(sample.defects, refWorkspace));
        if ((id & 63) == 63 && nowNs() >= refEnd) {
            break;
        }
    }
    const uint64_t n = reference.size();

    // Composed passes, chunk by chunk: untraced, traced, untraced
    // again on the same samples, so host drift cancels out of the
    // tracing overhead. Spans are recorded once per sample.
    auto mirror = decoder.clone();
    ComposedPipeline composed(
        dynamic_cast<qec::PredecodedDecoder &>(*mirror));
    qec::DecodeWorkspace workspace;
    LayerCounters counters, unused;
    uint64_t mismatches = 0;
    const auto pass = [&](bool record, uint64_t begin, uint64_t end) {
        rec.setEnabled(record);
        LayerCounters &c = record ? counters : unused;
        const int64_t t0 = nowNs();
        for (uint64_t id = begin; id < end; ++id) {
            SpanRecorder::Scope root(rec, kSampleRoot, id);
            {
                SpanRecorder::Scope s(rec, kHarnessSample, id);
                seq.draw(id, sample);
            }
            const qec::DecodeResult r =
                composed.decode(sample.defects, workspace, rec, id, c);
            mismatches += sameResult(r, reference[id]) ? 0 : 1;
        }
        const double wall = static_cast<double>(nowNs() - t0);
        rec.setEnabled(false);
        return wall;
    };
    double tracedWall = 0.0, plainWall = 0.0;
    for (uint64_t begin = 0; begin < n; begin += kOverheadChunk) {
        const uint64_t end = std::min(n, begin + kOverheadChunk);
        plainWall += 0.5 * pass(false, begin, end);
        tracedWall += pass(true, begin, end);
        plainWall += 0.5 * pass(false, begin, end);
    }
    report.count(3 * n, mismatches);
    if (mismatches) {
        report.fail("composed predecode + main decode diverges from "
                    "PredecodedDecoder::decode");
    }
    reportDecodeLayers(rec, counters, tracedWall, report);
    report.add("trace.overhead_share", "ratio",
               1.0 - plainWall / tracedWall,
               "1 - traced/untraced serial samples/s; untraced " +
                   std::to_string(static_cast<long>(
                       static_cast<double>(n) * 1e9 / plainWall)) +
                   " samples/s over " + std::to_string(n) + " samples");

    // 64-lane block pass: serial decode() vs decodeBlock() on the
    // same blocks, plus the predecodeBlock call on engaged lanes.
    const qec::LatencyConfig &latency = pipeline->latencyConfig();
    const long long budgetCycles = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);
    const SampleSequence blockSeq{sampler, deriveSeed(args.seed, 4),
                                  w.kMin, w.kMax};
    std::vector<uint64_t> words(ctx.graph().numDetectors(), 0);
    std::vector<qec::ImportanceSampler::Sample> lanes(64);
    qec::DecodeResult serial[64], block[64];
    qec::DecodeWorkspace wsSerial, wsBlock, wsPre;
    qec::BlockPredecodeResult preBlock;
    double serialNs = 0, blockNs = 0, preNs = 0;
    uint64_t laneCount = 0, engagedLanes = 0, blockMismatches = 0;
    const int64_t blockEnd =
        nowNs() + static_cast<int64_t>(0.15 * S * 1e9);
    for (uint64_t b = 0; b < 4 || nowNs() < blockEnd; ++b) {
        uint64_t engaged = 0;
        for (int l = 0; l < 64; ++l) {
            blockSeq.draw(b * 64 + static_cast<uint64_t>(l), lanes[l]);
            for (uint32_t det : lanes[l].defects) {
                words[det] |= uint64_t{1} << l;
            }
            if (static_cast<int>(lanes[l].defects.size()) >
                latency.astreaMaxHw) {
                engaged |= uint64_t{1} << l;
            }
        }
        int64_t t0 = nowNs();
        for (int l = 0; l < 64; ++l) {
            serial[l] = decoder.decode(lanes[l].defects, wsSerial);
        }
        serialNs += static_cast<double>(nowNs() - t0);
        t0 = nowNs();
        decoder.decodeBlock(words, 64, wsBlock, block);
        blockNs += static_cast<double>(nowNs() - t0);
        if (engaged) {
            t0 = nowNs();
            pipeline->predecoder().predecodeBlock(
                words, engaged, budgetCycles, wsPre, preBlock);
            preNs += static_cast<double>(nowNs() - t0);
            engagedLanes += static_cast<uint64_t>(std::popcount(engaged));
        }
        for (int l = 0; l < 64; ++l) {
            blockMismatches += sameResult(serial[l], block[l]) ? 0 : 1;
            for (uint32_t det : lanes[l].defects) {
                words[det] = 0;
            }
        }
        laneCount += 64;
    }
    report.count(laneCount, blockMismatches);
    if (blockMismatches) {
        report.fail("decodeBlock differs from serial decode()");
    }
    const double lanesD = static_cast<double>(laneCount);
    report.add("predecode.block_ns_per_lane", "ns",
               engagedLanes ? preNs / static_cast<double>(engagedLanes)
                            : 0.0,
               "predecodeBlock per engaged lane, " +
                   std::to_string(engagedLanes) + " lanes");
    report.add("decoders.block_ns_per_lane", "ns", blockNs / lanesD,
               "decodeBlock, " + std::to_string(laneCount) + " lanes");
    report.add("decoders.batch_speedup", "ratio", serialNs / blockNs,
               "base: serial decode() " +
                   std::to_string(static_cast<long>(serialNs / lanesD)) +
                   " ns/sample on the same blocks");

    reportNotExercised(report, {"sim.stream_sample_s"}, "s");
    reportNotExercised(report,
                       {"serve.queue_wait_ns_p50", "serve.queue_wait_ns_p99",
                        "serve.service_ns_p50", "serve.service_ns_p99",
                        "serve.overhead_ns", "serve.generator_late_ns_p99",
                        "serve.generator_late_ns_max"},
                       "ns");
    reportNotExercised(report,
                       {"serve.decodes_per_request", "serve.rejected",
                        "serve.shed", "serve.expired"},
                       "count");
    reportNotExercised(report, {"serve.carried_share"}, "ratio");
    reportNotExercised(report, {"serve.max_qps_at_slo"}, "1/s");

    const std::string path = args.outDir + "/spans-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!rec.writeJsonLines(path, hostJson())) {
        report.fail("could not write span file " + path);
    } else {
        std::printf("spans: %zu written to %s\n", rec.spans().size(),
                    path.c_str());
    }
}

} // namespace

int
runLer(const Args &args, Report &report)
{
    const LerWorkload *w = nullptr;
    for (const LerWorkload &candidate : kWorkloads) {
        if (args.workload == candidate.name) {
            w = &candidate;
        }
    }
    if (!w) {
        return 2;
    }
    std::printf("workload %s: %s, d=%d, p=%g, %s path table, k=%d..%d\n",
                w->name, w->spec, w->distance, w->p,
                w->deferred ? "DeferPairs" : "dense", w->kMin, w->kMax);

    Stack stack;
    std::vector<double> setup;
    for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
        stack = Stack{}; // Free the previous build first.
        onFreshThread([&] {
            const int64_t t0 = nowNs();
            stack = buildStack(*w);
            setup.push_back(secondsSince(t0));
        });
    }
    report.add("setup_s", "s", summarize(setup),
               "ExperimentContext + decoder build");

    if (args.trace) {
        runTraced(*w, args, stack, report);
    } else {
        runTimed(*w, args, stack, report);
    }
    report.add("peak_rss_mb", "MB", peakRssMb());
    return 0;
}

} // namespace perfbench
