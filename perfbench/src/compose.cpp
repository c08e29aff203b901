#include "compose.hpp"

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/sparse_mwpm.hpp"
#include "qec/dem/decompose.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

namespace perfbench
{

std::vector<std::string>
spanNames()
{
    return {"sample",
            "setup",
            "surface.circuit",
            "dem.build",
            "graph.decoding_graph",
            "graph.path_table",
            "api.decoder_build",
            "harness.sample",
            "decoders.pipeline",
            "predecode.predecode",
            "decoders.match",
            "matching.problem_build",
            "matching.solve",
            "serve.stream_run"};
}

ComposedPipeline::ComposedPipeline(qec::PredecodedDecoder &stack)
    : stack_(stack), paths_(stack.paths()),
      sparse_(dynamic_cast<qec::SparseMwpmDecoder *>(
                  &stack.mainDecoder()) != nullptr)
{
}

qec::DecodeResult
ComposedPipeline::match(std::span<const uint32_t> defects,
                        qec::DecodeWorkspace &workspace,
                        SpanRecorder &rec, uint64_t id,
                        LayerCounters &counters)
{
    SpanRecorder::Scope span(rec, kMatch, id);
    if (!sparse_) {
        return stack_.mainDecoder().decode(defects, workspace);
    }
    // SparseMwpmDecoder::decode, one layer call at a time.
    qec::DecodeResult result;
    result.realTime = false;
    if (defects.empty()) {
        return result;
    }
    {
        SpanRecorder::Scope build(rec, kProblemBuild, id);
        problem_.build(paths_, defects);
    }
    {
        SpanRecorder::Scope solve(rec, kSolve, id);
        matcher_.solve(problem_, solution_);
    }
    ++counters.problems;
    counters.problemDefects += static_cast<uint64_t>(problem_.size());
    for (int i = 0; i < problem_.size(); ++i) {
        counters.candidates += problem_.candidates(i).size();
    }
    if (!solution_.valid) {
        result.aborted = true;
        return result;
    }
    result.predictedObs = problem_.solutionObs(solution_);
    result.weight = solution_.totalWeight;
    return result;
}

qec::DecodeResult
ComposedPipeline::decode(std::span<const uint32_t> defects,
                         qec::DecodeWorkspace &workspace,
                         SpanRecorder &rec, uint64_t id,
                         LayerCounters &counters)
{
    SpanRecorder::Scope span(rec, kPipeline, id);
    ++counters.decodes;
    const qec::LatencyConfig &latency = stack_.latencyConfig();
    const double budgetNs = latency.effectiveBudgetNs();

    // PredecodedDecoder::decode's dispatch: low-HW syndromes skip
    // the predecoder.
    if (static_cast<int>(defects.size()) <= latency.astreaMaxHw) {
        qec::DecodeResult result =
            match(defects, workspace, rec, id, counters);
        if (result.latencyNs > budgetNs) {
            result.aborted = true;
        }
        counters.aborted += result.aborted ? 1 : 0;
        return result;
    }

    const long long budgetCycles =
        static_cast<long long>(budgetNs / latency.nsPerCycle);
    qec::PredecodeResult &pre = workspace.predecodeResult;
    {
        SpanRecorder::Scope predecode(rec, kPredecode, id);
        stack_.predecoder().predecode(defects, budgetCycles,
                                      workspace, pre);
    }
    const double predecodeNs =
        static_cast<double>(pre.cycles) * latency.nsPerCycle;
    ++counters.engaged;
    counters.hwIn += defects.size();
    counters.hwOut += pre.decodedAll ? 0 : pre.residual.size();
    counters.localResolved +=
        (pre.decodedAll || pre.residual.empty()) ? 1 : 0;
    counters.rounds += static_cast<uint64_t>(pre.rounds);

    qec::DecodeResult result;
    if (pre.decodedAll) {
        result.predictedObs = pre.obsMask;
        result.weight = pre.weight;
        result.latencyNs = predecodeNs;
        result.aborted = result.latencyNs > budgetNs;
        counters.aborted += result.aborted ? 1 : 0;
        return result;
    }
    const qec::DecodeResult main =
        match(pre.residual, workspace, rec, id, counters);
    result.predictedObs = pre.obsMask ^ main.predictedObs;
    result.weight = pre.weight + main.weight;
    result.latencyNs = pre.forwarded
                           ? std::max(predecodeNs, main.latencyNs)
                           : predecodeNs + main.latencyNs;
    result.aborted = main.aborted || result.latencyNs > budgetNs;
    counters.aborted += result.aborted ? 1 : 0;
    return result;
}

void
traceSetupStages(int distance, double p, bool deferred,
                 const std::string &spec, SpanRecorder &rec,
                 Report &report)
{
    const bool wasEnabled = rec.enabled();
    rec.setEnabled(true);
    int64_t t[6];
    {
        SpanRecorder::Scope setup(rec, kSetup, 0);
        t[0] = nowNs();
        std::unique_ptr<qec::SurfaceCodeLayout> layout;
        qec::MemoryExperiment experiment;
        {
            SpanRecorder::Scope s(rec, kSurface, 0);
            layout = std::make_unique<qec::SurfaceCodeLayout>(distance);
            experiment = qec::generateMemoryZ(
                *layout, distance, qec::NoiseParams::uniform(p));
        }
        t[1] = nowNs();
        qec::GraphlikeDem graphlike;
        {
            SpanRecorder::Scope s(rec, kDem, 0);
            const qec::DetectorErrorModel dem =
                qec::buildDetectorErrorModel(experiment.circuit);
            graphlike = qec::decomposeToGraphlike(dem);
        }
        t[2] = nowNs();
        std::unique_ptr<qec::DecodingGraph> graph;
        {
            SpanRecorder::Scope s(rec, kDecodingGraph, 0);
            graph = std::make_unique<qec::DecodingGraph>(
                qec::DecodingGraph::fromDem(graphlike,
                                            experiment.detectors));
        }
        t[3] = nowNs();
        std::unique_ptr<qec::PathTable> paths;
        {
            SpanRecorder::Scope s(rec, kPathTable, 0);
            paths = deferred ? std::make_unique<qec::PathTable>(
                                   *graph, qec::PathTable::DeferPairs{})
                             : std::make_unique<qec::PathTable>(*graph);
        }
        t[4] = nowNs();
        {
            SpanRecorder::Scope s(rec, kDecoderBuild, 0);
            auto decoder = qec::build(qec::DecoderSpec::parse(spec),
                                      *graph, *paths);
        }
        t[5] = nowNs();
    }
    rec.setEnabled(wasEnabled);
    const auto secs = [&](int i) {
        return static_cast<double>(t[i + 1] - t[i]) * 1e-9;
    };
    report.add("surface.circuit_s", "s", secs(0),
               "layout + generateMemoryZ");
    report.add("dem.build_s", "s", secs(1),
               "buildDetectorErrorModel + decomposeToGraphlike");
    report.add("graph.decoding_graph_s", "s", secs(2));
    report.add("graph.path_table_s", "s", secs(3),
               deferred ? "DeferPairs" : "dense");
    report.add("api.decoder_build_s", "s", secs(4), spec);
}

namespace
{

struct NameStats
{
    std::vector<double> durations;
    double selfNs = 0.0;
};

double
meanOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v) {
        sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
reportDecodeLayers(const SpanRecorder &rec,
                   const LayerCounters &counters, double wallNs,
                   Report &report)
{
    const std::vector<Span> &spans = rec.spans();
    const std::vector<int64_t> self = selfTimes(spans);
    std::vector<NameStats> byName(kNumSpanNames);
    double rootNs = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name == kSetup || s.name == kSurface ||
            s.name == kDem || s.name == kDecodingGraph ||
            s.name == kPathTable || s.name == kDecoderBuild) {
            continue; // Set-up is reported on its own.
        }
        const double d = static_cast<double>(s.endNs - s.startNs);
        byName[s.name].durations.push_back(d);
        byName[s.name].selfNs += static_cast<double>(self[i]);
        if (s.parent < 0) {
            rootNs += d;
        }
    }
    const auto mean = [&](SpanName n) {
        return meanOf(byName[n].durations);
    };
    const auto p99 = [&](SpanName n) {
        return tailOf(byName[n].durations, 0.99);
    };
    report.add("harness.sample_ns", "ns", mean(kHarnessSample),
               "mean per ImportanceSampler::sample");

    const Tail preTail = p99(kPredecode);
    report.add("predecode.ns_per_call", "ns", mean(kPredecode));
    report.add("predecode.ns_p99", "ns", preTail.value,
               tailNote(preTail));
    report.add("predecode.calls", "count",
               static_cast<double>(counters.engaged));
    report.add("predecode.engaged_share", "ratio",
               ratio(static_cast<double>(counters.engaged),
                     static_cast<double>(counters.decodes)),
               "base: " + std::to_string(counters.decodes) +
                   " pipeline decodes");
    report.add("predecode.coverage", "ratio",
               counters.hwIn
                   ? 1.0 - static_cast<double>(counters.hwOut) /
                               static_cast<double>(counters.hwIn)
                   : 0.0,
               "1 - residual HW / input HW; base: " +
                   std::to_string(counters.hwIn) + " input defects");
    report.add("predecode.local_resolve_share", "ratio",
               ratio(static_cast<double>(counters.localResolved),
                     static_cast<double>(counters.engaged)),
               "base: engaged calls");
    report.add("predecode.rounds_mean", "count",
               ratio(static_cast<double>(counters.rounds),
                     static_cast<double>(counters.engaged)));

    const Tail matchTail = p99(kMatch);
    report.add("decoders.match_ns_per_call", "ns", mean(kMatch));
    report.add("decoders.match_ns_p99", "ns", matchTail.value,
               tailNote(matchTail));
    report.add("decoders.aborted_share", "ratio",
               ratio(static_cast<double>(counters.aborted),
                     static_cast<double>(counters.decodes)),
               "base: pipeline decodes");
    std::vector<double> pipe = byName[kPipeline].durations;
    std::sort(pipe.begin(), pipe.end());
    const Tail pipeTail = tailPercentile(pipe, 0.99);
    report.add("decoders.pipeline_ns_p50", "ns", medianOfSorted(pipe),
               "n=" + std::to_string(pipe.size()));
    report.add("decoders.pipeline_ns_p99", "ns", pipeTail.value,
               tailNote(pipeTail));

    report.add("matching.problem_build_ns", "ns", mean(kProblemBuild),
               "oracle growth + pruning, mean per call");
    report.add("matching.solve_ns", "ns", mean(kSolve));
    report.add("matching.candidates_per_defect", "count",
               ratio(static_cast<double>(counters.candidates),
                     static_cast<double>(counters.problemDefects)));
    report.add("matching.residual_defects_mean", "count",
               ratio(static_cast<double>(counters.problemDefects),
                     static_cast<double>(counters.problems)),
               "defects per sparse matching problem");

    const auto share = [&](const char *metric, SpanName n) {
        report.add(metric, "ratio", ratio(byName[n].selfNs, wallNs),
                   "self time / traced wall time");
    };
    share("selfshare.sample_loop", kSampleRoot);
    share("selfshare.harness.sample", kHarnessSample);
    share("selfshare.decoders.pipeline", kPipeline);
    share("selfshare.predecode.predecode", kPredecode);
    share("selfshare.decoders.match", kMatch);
    share("selfshare.matching.problem_build", kProblemBuild);
    share("selfshare.matching.solve", kSolve);
    share("selfshare.serve.stream_run", kStreamRun);
    report.add("trace.accounted_share", "ratio",
               ratio(rootNs, wallNs),
               "root spans / traced wall time");
}

void
reportNotExercised(Report &report,
                   std::initializer_list<const char *> names,
                   const std::string &unit)
{
    for (const char *name : names) {
        report.add(name, unit, 0.0, "not exercised by this workload");
    }
}

} // namespace perfbench
