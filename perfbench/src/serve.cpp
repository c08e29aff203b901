/**
 * @file
 * The serving workload (serve_d11_p1e-3): an open-loop DecodeServer
 * over d = 11, p = 1e-3 syndrome streams. At this error rate half of
 * the streams exceed HW 10, so the predecoder sits on the real-time
 * path through serial decode() inside the streaming windows.
 *
 * Phases: set-up three times (context + ladder + server start,
 * median); stream sampling; a serial StreamingDecoder reference for
 * every pool stream; a warm-up; the fixed open-loop rate ladder, with
 * the reference rate held longest; a closed-loop saturation phase.
 * Every response is checked against the reference by its tag, and
 * latency is measured from each request's due time in this file's
 * handler, so a late generator is charged to the requests it held
 * up. The traced run adds the staged set-up and a serial pass that
 * runs the composed pipeline under spans inside StreamingDecoder.
 */

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/fallback.hpp"
#include "qec/harness/context.hpp"
#include "qec/serve/server.hpp"
#include "qec/serve/stream.hpp"
#include "qec/serve/streaming.hpp"

#include "compose.hpp"

namespace perfbench
{

namespace
{

constexpr int kDistance = 11;
constexpr double kP = 1e-3;
constexpr const char *kPrimary = "promatch+astrea";
constexpr const char *kSecondTier = "sparse";
constexpr const char *kCommitFloor = "pinball";
constexpr int kWorkers = 2;
/** In-flight capacity: absorbs a ~4 ms stall of both workers at the
 *  top offered rate, so host hiccups queue instead of shedding. */
constexpr int kRing = 1024;
constexpr int kPool = 4096;
constexpr int kSetupRepeats = 3;
/** Fixed offered rates (requests/s); never derived from a measured
 *  saturation, so two runs offer identical load. */
constexpr double kRates[] = {50e3, 100e3, 150e3, 200e3, 250e3};
/** Rate at which the headline p50/p99 are taken: ~1/4 of the pool's
 *  closed-loop capacity on the host it was sized on, low enough that
 *  a slower stretch of a shared host does not push the p99 into
 *  queueing (at 150k/s the p99 spread over ten runs was 8x wider). */
constexpr double kReferenceRate = 100e3;
/** p99 limit of serve.max_qps_at_slo. */
constexpr double kSloP99Us = 100.0;
/** Open-loop admission: bounded backoff (~3 ms in total) before a
 *  request is shed. */
constexpr qec::RetryPolicy kRetry{12, 2'000, 2.0, 1'000'000, 0x9ec0ffee};
/** Latency percentiles are taken per window, then their median. */
constexpr double kWindowS = 0.25;
/** One measurement round: the closed loop, then every ladder rate,
 *  the reference rate held longest. */
constexpr double kClosedStepS = 0.5;
constexpr double kReferenceStepS = 0.75;
constexpr double kOtherStepS = 0.1875;
constexpr double kRoundS = kClosedStepS + kReferenceStepS + 4 * kOtherStepS;

constexpr double
stepSeconds(double rate)
{
    return rate == kReferenceRate ? kReferenceStepS : kOtherStepS;
}

/** Responses recorded by tag (the request's index in its phase). */
struct Responses
{
    std::vector<uint64_t> refObs; //!< Per pool stream.
    std::vector<int64_t> doneNs;  //!< Completion time; -1 = none.
    std::vector<float> serviceNs;
    std::vector<float> serverLatencyNs;
    std::atomic<uint64_t> completions{0};
    std::atomic<uint64_t> wrong{0};
};

struct Service
{
    std::unique_ptr<qec::ExperimentContext> ctx;
    std::unique_ptr<qec::FallbackDecoder> ladder;
    std::unique_ptr<qec::DecodeServer> server;
};

int
detectorsPerRound(const qec::ExperimentContext &ctx)
{
    return static_cast<int>(ctx.experiment().circuit.numDetectors() /
                            static_cast<size_t>(ctx.rounds() + 1));
}

/** Start (or restart) the worker pool over the service's ladder. */
void
startServer(Service &s, Responses &responses)
{
    s.server.reset(); // Drain and join the previous pool first.
    qec::ServeConfig config;
    config.workers = kWorkers;
    config.queueCapacity = kRing;
    Responses *r = &responses;
    s.server = std::make_unique<qec::DecodeServer>(
        *s.ladder, detectorsPerRound(*s.ctx), config,
        [r](const qec::DecodeResponse &response) {
            const int64_t done = nowNs();
            const uint64_t tag = response.tag;
            if (response.status != qec::DecodeStatus::kOk ||
                response.correctedObs != r->refObs[tag % kPool]) {
                r->wrong.fetch_add(1, std::memory_order_relaxed);
            }
            if (tag < r->doneNs.size()) {
                r->doneNs[tag] = done;
                r->serviceNs[tag] =
                    static_cast<float>(response.serviceNs);
                r->serverLatencyNs[tag] =
                    static_cast<float>(response.latencyNs);
            }
            r->completions.fetch_add(1, std::memory_order_release);
        });
}

Service
startService(Responses &responses)
{
    Service s;
    s.ctx = std::make_unique<qec::ExperimentContext>(kDistance, kP);
    // Budget disabled: tier 0 answers every decode, bit-identical to
    // the primary stack alone.
    s.ladder = qec::makeDegradationLadder(
        s.ctx->graph(), s.ctx->paths(), {kPrimary, kSecondTier},
        kCommitFloor);
    startServer(s, responses);
    return s;
}

/** Everything measured at one offered rate, over all rounds. */
struct RateStats
{
    double rate = 0.0;
    uint64_t sent = 0, shed = 0, expired = 0, rejected = 0, wrong = 0;
    /** Per-window due-time percentiles (full windows only). */
    std::vector<double> windowP50Us, windowP99Us;
    /** Send time minus due time, per request. */
    std::vector<double> lateNs;
    /** Reference rate only: per-request due-time latency, queue wait
     *  and service time. */
    std::vector<double> latencyUs, queueWaitNs, serviceNs;
    /** A step ended with more in flight than one SLO's arrivals. */
    bool backlog = false;

    bool
    meetsSlo() const
    {
        return !windowP99Us.empty() &&
               medianOf(windowP99Us) <= kSloP99Us && shed == 0 &&
               expired == 0 && wrong == 0 && !backlog;
    }
};

/** Wait until the handler has run for every accepted request (the
 *  server's drain() already orders this; the check is cheap). */
void
awaitHandlers(const Responses &r, uint64_t accepted)
{
    while (r.completions.load(std::memory_order_acquire) < accepted) {
        std::this_thread::yield();
    }
}

/** Check the server's own bookkeeping after a drained phase. */
qec::ServeStats
drainAndCheck(qec::DecodeServer &server, const Responses &r,
              Report &report)
{
    server.drain();
    const qec::ServeStats stats = server.stats();
    if (stats.accepted != stats.completed + stats.expired) {
        report.fail("accepted != completed + expired after drain (" +
                    std::to_string(stats.accepted) + " vs " +
                    std::to_string(stats.completed) + " + " +
                    std::to_string(stats.expired) + ")");
    }
    awaitHandlers(r, stats.accepted);
    return stats;
}

/** One open-loop step at agg.rate for `seconds`, added to `agg`. */
void
openLoop(qec::DecodeServer &server,
         const std::vector<qec::SyndromeStream> &pool, Responses &r,
         double seconds, RateStats &agg, Report &report)
{
    const double rate = agg.rate;
    const uint64_t n = static_cast<uint64_t>(rate * seconds);
    if (n > r.doneNs.size()) {
        report.fail("open-loop step exceeds the response record");
        return;
    }
    std::fill(r.doneNs.begin(), r.doneNs.begin() + n, int64_t{-1});
    server.resetStats();
    r.completions.store(0, std::memory_order_relaxed);
    const uint64_t wrongBefore = r.wrong.load();

    uint64_t shed = 0;
    const OpenLoopSchedule sched{nowNs() + 100'000, rate};
    for (uint64_t i = 0; i < n; ++i) {
        const int64_t due = sched.dueNs(i);
        int64_t now = nowNs();
        while (now < due) {
            std::this_thread::yield();
            now = nowNs();
        }
        agg.lateNs.push_back(static_cast<double>(now - due));
        const qec::SubmitResult s =
            server.submitWithRetry(pool[i % kPool], i, 0, kRetry);
        shed += s.accepted ? 0 : 1;
    }
    const double outstanding =
        static_cast<double>(n - shed) -
        static_cast<double>(r.completions.load());
    const qec::ServeStats stats = drainAndCheck(server, r, report);
    agg.sent += n;
    agg.shed += shed;
    agg.expired += stats.expired;
    agg.rejected += stats.rejected;
    agg.wrong += r.wrong.load() - wrongBefore;
    agg.backlog =
        agg.backlog || outstanding > rate * kSloP99Us * 1e-6;

    // Due-time latency per window of due times (a step shorter than
    // a window is one window).
    const bool keep = rate == kReferenceRate;
    const uint64_t perWindow = std::clamp<uint64_t>(
        static_cast<uint64_t>(rate * kWindowS), 1, n);
    std::vector<double> window;
    for (uint64_t begin = 0; begin < n; begin += perWindow) {
        const uint64_t end = std::min(n, begin + perWindow);
        window.clear();
        for (uint64_t i = begin; i < end; ++i) {
            if (r.doneNs[i] < 0) {
                continue; // Shed: counted as failed, no latency.
            }
            window.push_back(
                static_cast<double>(sched.latencyNs(i, r.doneNs[i])) *
                1e-3);
            if (keep) {
                agg.serviceNs.push_back(r.serviceNs[i]);
                agg.queueWaitNs.push_back(r.serverLatencyNs[i] -
                                          r.serviceNs[i]);
            }
        }
        if (keep) {
            agg.latencyUs.insert(agg.latencyUs.end(), window.begin(),
                                 window.end());
        }
        // Only full windows carry a p99 with >= 10 samples beyond.
        if (end - begin == perWindow && window.size() >= 1000) {
            std::sort(window.begin(), window.end());
            agg.windowP50Us.push_back(medianOfSorted(window));
            agg.windowP99Us.push_back(
                tailPercentile(window, 0.99).value);
        }
    }
}

struct ClosedStats
{
    std::vector<double> windowRates;
    uint64_t sent = 0, expired = 0, wrong = 0;
};

/** One producer submitting as fast as admission allows, for
 *  `seconds`; completions per window are added to `out`. */
void
closedLoop(qec::DecodeServer &server,
           const std::vector<qec::SyndromeStream> &pool, Responses &r,
           double seconds, ClosedStats &out, Report &report)
{
    server.resetStats();
    r.completions.store(0, std::memory_order_relaxed);
    const uint64_t wrongBefore = r.wrong.load();
    const int64_t windowNs = static_cast<int64_t>(kWindowS * 1e9);
    const int windows =
        std::max(1, static_cast<int>(seconds / kWindowS + 0.5));
    // Tags start past the response record, so closed-loop responses
    // are checked and counted but not stored.
    const uint64_t tagBase = r.doneNs.size() -
                             r.doneNs.size() % kPool + kPool;
    uint64_t sent = 0, windowBase = 0;
    int64_t windowStart = nowNs();
    for (int w = 0; w < windows;) {
        const int64_t now = nowNs();
        if (now - windowStart >= windowNs) {
            const uint64_t done = r.completions.load();
            out.windowRates.push_back(
                static_cast<double>(done - windowBase) * 1e9 /
                static_cast<double>(now - windowStart));
            windowBase = done;
            windowStart = now;
            ++w;
            continue;
        }
        if (server.submit(pool[sent % kPool], tagBase + sent)) {
            ++sent;
        } else {
            std::this_thread::yield();
        }
    }
    const qec::ServeStats stats = drainAndCheck(server, r, report);
    out.sent += sent;
    out.expired += stats.expired;
    out.wrong += r.wrong.load() - wrongBefore;
}

/** A Decoder that runs the composed pipeline under spans, so a
 *  StreamingDecoder drives it exactly as it drives the real stack. */
class TracedStack : public qec::Decoder
{
  public:
    TracedStack(qec::PredecodedDecoder &stack, SpanRecorder &rec,
                LayerCounters &counters)
        : Decoder(stack.graph(), stack.paths()), composed_(stack),
          rec_(rec), counters_(counters)
    {
    }

    using Decoder::decode;
    qec::DecodeResult
    decode(std::span<const uint32_t> defects,
           qec::DecodeWorkspace &workspace,
           qec::DecodeTrace * = nullptr) override
    {
        return composed_.decode(defects, workspace, rec_, stream,
                                counters_);
    }

    std::unique_ptr<qec::Decoder>
    clone() const override
    {
        throw std::logic_error("TracedStack is not cloneable");
    }

    std::string name() const override { return "traced-composed"; }

    /** Id stamped on the spans of the stream being decoded. */
    uint64_t stream = 0;

  private:
    ComposedPipeline composed_;
    SpanRecorder &rec_;
    LayerCounters &counters_;
};

void
runTracedStreams(const Args &args, Service &service,
                 const std::vector<qec::SyndromeStream> &pool,
                 const std::vector<qec::StreamDecodeOutcome> &reference,
                 Report &report)
{
    SpanRecorder rec(spanNames(), 1 << 20);
    traceSetupStages(kDistance, kP, false, kPrimary, rec, report);

    auto primary = qec::build(qec::DecoderSpec::parse(kPrimary),
                              service.ctx->graph(),
                              service.ctx->paths());
    auto *stack = dynamic_cast<qec::PredecodedDecoder *>(primary.get());
    if (!stack) {
        report.fail(std::string(kPrimary) + " is not a predecoder stack");
        return;
    }
    // Untraced, traced, untraced again per chunk of streams, so host
    // drift cancels out of the tracing overhead.
    LayerCounters counters, unused;
    uint64_t mismatches = 0;
    TracedStack traced(*stack, rec, counters);
    TracedStack plain(*stack, rec, unused);
    const int perRound = detectorsPerRound(*service.ctx);
    const qec::StreamingConfig &cfg = service.server->config().streaming;
    qec::StreamingDecoder tracedStreaming(traced, perRound, cfg);
    qec::StreamingDecoder plainStreaming(plain, perRound, cfg);
    const auto pass = [&](bool record, size_t begin, size_t end) {
        TracedStack &decoder = record ? traced : plain;
        qec::StreamingDecoder &streaming =
            record ? tracedStreaming : plainStreaming;
        rec.setEnabled(record);
        const int64_t t0 = nowNs();
        for (size_t i = begin; i < end && !rec.full(); ++i) {
            SpanRecorder::Scope root(rec, kStreamRun, i);
            decoder.stream = i;
            const qec::StreamDecodeOutcome o =
                streaming.runChecked(pool[i]);
            mismatches += (o.status != reference[i].status ||
                           o.committedObs != reference[i].committedObs ||
                           o.aborted != reference[i].aborted)
                              ? 1
                              : 0;
        }
        const double wall = static_cast<double>(nowNs() - t0);
        rec.setEnabled(false);
        return wall;
    };
    double tracedWall = 0.0, plainWall = 0.0;
    constexpr size_t kChunk = 256;
    for (size_t begin = 0; begin < pool.size(); begin += kChunk) {
        const size_t end = std::min(pool.size(), begin + kChunk);
        plainWall += 0.5 * pass(false, begin, end);
        tracedWall += pass(true, begin, end);
        plainWall += 0.5 * pass(false, begin, end);
    }
    report.count(3 * pool.size(), mismatches);
    if (mismatches) {
        report.fail("composed pipeline under StreamingDecoder diverges "
                    "from the serving ladder");
    }
    reportDecodeLayers(rec, counters, tracedWall, report);
    report.add("trace.overhead_share", "ratio",
               1.0 - plainWall / tracedWall,
               "1 - traced/untraced serial streams/s over " +
                   std::to_string(pool.size()) + " streams");
    reportNotExercised(report,
                       {"predecode.block_ns_per_lane",
                        "decoders.block_ns_per_lane"},
                       "ns");
    reportNotExercised(report,
                       {"decoders.batch_speedup",
                        "harness.parallel_efficiency"},
                       "ratio");

    const std::string path = args.outDir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             ".jsonl";
    if (!rec.writeJsonLines(path, hostJson())) {
        report.fail("could not write span file " + path);
    } else {
        std::printf("spans: %zu written to %s\n", rec.spans().size(),
                    path.c_str());
    }
}

} // namespace

int
runServe(const Args &args, Report &report)
{
    const double S = args.seconds;
    std::printf("workload %s: %s > %s > %s-commit ladder (no budget), "
                "d=%d, p=%g, %d workers, 1 producer\n",
                args.workload.c_str(), kPrimary, kSecondTier,
                kCommitFloor, kDistance, kP, kWorkers);

    // Response record sized for the longest open-loop step.
    Responses responses;
    uint64_t recordCap = 0;
    for (double rate : kRates) {
        recordCap =
            std::max(recordCap,
                     static_cast<uint64_t>(rate * stepSeconds(rate)) + 1);
    }
    responses.doneNs.assign(recordCap, -1);
    responses.serviceNs.assign(recordCap, 0.0f);
    responses.serverLatencyNs.assign(recordCap, 0.0f);

    Service service;
    std::vector<double> setup;
    for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
        service = Service{}; // Stop and free the previous build first.
        const int64_t t0 = nowNs();
        service = startService(responses);
        setup.push_back(secondsSince(t0));
    }
    report.add("setup_s", "s", summarize(setup),
               "ExperimentContext + ladder build + server start");

    int64_t t0 = nowNs();
    const std::vector<qec::SyndromeStream> pool =
        qec::sampleStreams(*service.ctx, deriveSeed(args.seed, 5), kPool);
    report.add("sim.stream_sample_s", "s", secondsSince(t0),
               std::to_string(kPool) + " streams, input generation only");

    // Serial reference: every pool stream through a StreamingDecoder
    // over a clone of the ladder, timed per stream.
    auto refDecoder = service.ladder->clone();
    qec::StreamingDecoder refStreaming(
        *refDecoder, detectorsPerRound(*service.ctx),
        service.server->config().streaming);
    std::vector<qec::StreamDecodeOutcome> reference(pool.size());
    responses.refObs.assign(pool.size(), 0);
    std::vector<double> serialRunNs;
    uint64_t decodes = 0, defectsSeen = 0, defectsCarried = 0;
    uint64_t badReference = 0, totalHw = 0, highHw = 0;
    for (int rep = 0; rep < 2; ++rep) { // First pass warms up.
        for (size_t i = 0; i < pool.size(); ++i) {
            t0 = nowNs();
            reference[i] = refStreaming.runChecked(pool[i]);
            const double ns = static_cast<double>(nowNs() - t0);
            if (rep == 0) {
                continue;
            }
            serialRunNs.push_back(ns);
            responses.refObs[i] = reference[i].committedObs;
            badReference +=
                reference[i].status == qec::DecodeStatus::kOk ? 0 : 1;
            const qec::StreamingStats &st = refStreaming.stats();
            decodes += st.decodes;
            defectsSeen += st.defectsSeen;
            defectsCarried += st.defectsCarried;
            totalHw += pool[i].defects.size();
            highHw += pool[i].defects.size() > 10 ? 1 : 0;
        }
    }
    if (badReference) {
        report.fail(std::to_string(badReference) +
                    " sampled streams failed validation");
    }
    std::printf("pool: %d streams, mean HW %.2f, %.1f%% above HW 10\n",
                kPool, static_cast<double>(totalHw) / kPool,
                100.0 * static_cast<double>(highHw) / kPool);

    // Measurement rounds: each visits the closed loop and every
    // ladder rate once, so a slow stretch of the host lands in a few
    // windows of every metric instead of all of one metric.
    ClosedStats warmup, closed;
    closedLoop(*service.server, pool, responses, 0.3, warmup, report);
    std::vector<RateStats> rates;
    for (double rate : kRates) {
        rates.push_back({});
        rates.back().rate = rate;
    }
    const int rounds =
        std::max(3, static_cast<int>(0.85 * S / kRoundS));
    for (int round = 0; round < rounds; ++round) {
        // A fresh pool each round: the scheduler places the long-lived
        // workers anew, so one run samples several placements on a
        // shared host instead of keeping the first one throughout.
        if (round > 0) {
            startServer(service, responses);
        }
        qec::DecodeServer &server = *service.server;
        closedLoop(server, pool, responses, kClosedStepS, closed, report);
        for (RateStats &agg : rates) {
            openLoop(server, pool, responses, stepSeconds(agg.rate), agg,
                     report);
        }
    }

    uint64_t attempted = closed.sent, failed = closed.wrong;
    uint64_t shed = 0, expired = closed.expired, rejected = 0;
    uint64_t wrong = closed.wrong;
    double maxQpsAtSlo = 0.0;
    const RateStats *ref = nullptr;
    std::vector<double> allLate;
    for (const RateStats &agg : rates) {
        attempted += agg.sent;
        failed += agg.shed + agg.expired + agg.wrong;
        shed += agg.shed;
        expired += agg.expired;
        rejected += agg.rejected;
        wrong += agg.wrong;
        allLate.insert(allLate.end(), agg.lateNs.begin(),
                       agg.lateNs.end());
        if (agg.meetsSlo()) {
            maxQpsAtSlo = std::max(maxQpsAtSlo, agg.rate);
        }
        if (agg.rate == kReferenceRate) {
            ref = &agg;
        }
        std::printf("  open loop %6.0f/s: sent %llu, shed %llu, p50 "
                    "%.2f us, p99 %.2f us (median of %zu windows), "
                    "late p99 %.0f ns, backlog %s, SLO %s\n",
                    agg.rate, static_cast<unsigned long long>(agg.sent),
                    static_cast<unsigned long long>(agg.shed),
                    medianOf(agg.windowP50Us), medianOf(agg.windowP99Us),
                    agg.windowP99Us.size(), tailOf(agg.lateNs, 0.99).value,
                    agg.backlog ? "yes" : "no",
                    agg.meetsSlo() ? "met" : "missed");
    }
    report.count(attempted, failed);
    if (wrong) {
        report.fail(std::to_string(wrong) +
                    " responses differ from the serial "
                    "StreamingDecoder reference or are not kOk");
    }

    report.add("throughput_per_s", "1/s", summarize(closed.windowRates),
               "closed-loop completions/s per " + std::to_string(kWindowS) +
                   " s window, " + std::to_string(rounds) + " rounds");
    const std::string rateText =
        std::to_string(static_cast<long>(kReferenceRate)) + "/s";
    std::vector<double> pooled = ref->latencyUs;
    std::sort(pooled.begin(), pooled.end());
    report.add("latency_p50_us", "us", summarize(ref->windowP50Us),
               "due-time p50 at " + rateText + " per " +
                   std::to_string(kWindowS) +
                   " s window; pooled " +
                   std::to_string(medianOfSorted(pooled)) + " us, n=" +
                   std::to_string(pooled.size()));
    const Tail pooledP99 = tailPercentile(pooled, 0.99);
    report.add("latency_p99_us", "us", summarize(ref->windowP99Us),
               "due-time p99 at " + rateText +
                   " per window (>= 10 beyond each); pooled " +
                   std::to_string(pooledP99.value) + " us, " +
                   tailNote(pooledP99));

    std::vector<double> queueWait = ref->queueWaitNs;
    std::vector<double> service_ = ref->serviceNs;
    std::sort(queueWait.begin(), queueWait.end());
    std::sort(service_.begin(), service_.end());
    report.add("serve.queue_wait_ns_p50", "ns", medianOfSorted(queueWait),
               "latencyNs - serviceNs at " + rateText);
    report.add("serve.queue_wait_ns_p99", "ns",
               tailPercentile(queueWait, 0.99).value);
    report.add("serve.service_ns_p50", "ns", medianOfSorted(service_));
    report.add("serve.service_ns_p99", "ns",
               tailPercentile(service_, 0.99).value);
    const double serialMedian = medianOf(serialRunNs);
    report.add("serve.overhead_ns", "ns",
               medianOfSorted(service_) - serialMedian,
               "service p50 - serial StreamingDecoder::run p50 (" +
                   std::to_string(static_cast<long>(serialMedian)) +
                   " ns)");
    report.add("serve.decodes_per_request", "count",
               static_cast<double>(decodes) / kPool);
    report.add("serve.carried_share", "ratio",
               defectsSeen ? static_cast<double>(defectsCarried) /
                                 static_cast<double>(defectsSeen)
                           : 0.0,
               "defects carried across a window seam / defects seen");
    const Tail late = tailOf(allLate, 0.99);
    report.add("serve.generator_late_ns_p99", "ns", late.value,
               "send - due, all open-loop steps; " + tailNote(late));
    report.add("serve.generator_late_ns_max", "ns",
               allLate.empty()
                   ? 0.0
                   : *std::max_element(allLate.begin(), allLate.end()));
    report.add("serve.rejected", "count", static_cast<double>(rejected),
               "open-loop submit attempts refused (retried)");
    report.add("serve.shed", "count", static_cast<double>(shed));
    report.add("serve.expired", "count", static_cast<double>(expired));
    report.add("serve.max_qps_at_slo", "1/s", maxQpsAtSlo,
               "highest ladder rate with window-median p99 <= 100 us, "
               "no shed, no backlog growth");

    if (args.trace) {
        runTracedStreams(args, service, pool, reference, report);
    }
    report.add("peak_rss_mb", "MB", peakRssMb());
    return 0;
}

} // namespace perfbench
