/**
 * @file
 * Quickstart: build a distance-5 surface code memory experiment,
 * decode sampled syndromes with Promatch + Astrea (constructed from
 * a decoder spec string; see docs/api.md), and estimate the logical
 * error rate two ways.
 *
 * Run:  ./example_quickstart [distance] [p] [spec]
 */

#include <cstdio>
#include <cstdlib>

#include "qec/qec.hpp"

int
main(int argc, char **argv)
{
    const int distance = argc > 1 ? std::atoi(argv[1]) : 5;
    const double p = argc > 2 ? std::atof(argv[2]) : 1e-3;
    const char *spec_text =
        argc > 3 ? argv[3] : "promatch+astrea";

    std::printf("Building distance-%d memory-Z experiment at "
                "p = %g ...\n",
                distance, p);
    const auto &ctx = qec::ExperimentContext::get(distance, p);
    std::printf("  %u data qubits, %u stabilizers, %u detectors, "
                "%zu decoding-graph edges\n",
                ctx.layout().numDataQubits(),
                ctx.layout().numStabilizers(),
                ctx.graph().numDetectors(),
                ctx.graph().edges().size());

    // Decode a handful of Monte-Carlo shots by hand.
    qec::FrameSimulator simulator(ctx.experiment().circuit);
    qec::Rng rng(2024);
    qec::BatchResult batch;
    simulator.sampleBatch(rng, batch);

    qec::DecoderSpec spec;
    std::unique_ptr<qec::Decoder> decoder;
    try {
        spec = qec::DecoderSpec::parse(spec_text);
        decoder = qec::build(spec, ctx.graph(), ctx.paths());
    } catch (const qec::SpecError &error) {
        std::fprintf(stderr, "bad decoder spec \"%s\": %s\n",
                     spec_text, error.what());
        return 1;
    }
    std::printf("\nFirst 8 sampled shots through %s (spec \"%s\"):\n",
                decoder->name().c_str(), spec.toString().c_str());
    std::vector<uint32_t> defects; // Reused across lanes.
    // Per-decode scratch, reused so steady-state decoding does not
    // allocate.
    qec::DecodeWorkspace workspace;
    for (int lane = 0; lane < 8; ++lane) {
        // Popcount-proportional extraction (see bitvec.hpp) — the
        // same idiom the direct-MC harness uses on its hot path.
        defects.clear();
        batch.detectorBits(lane).forEachSetBit(
            [&](uint32_t det) { defects.push_back(det); });
        const qec::DecodeResult result =
            decoder->decode(defects, workspace);
        const bool ok = !result.aborted &&
                        result.predictedObs ==
                            batch.observableMask(lane);
        std::printf("  shot %d: HW=%2zu  latency=%6.1f ns  %s\n",
                    lane, defects.size(), result.latencyNs,
                    ok ? "corrected" : "LOGICAL ERROR");
    }

    // Estimate the LER with direct Monte Carlo (threads = 0 uses
    // every hardware thread; results are bit-identical for any
    // thread count) ...
    const qec::DirectMcResult direct =
        qec::estimateLerDirect(ctx, *decoder, 20000, 7,
                               /*threads=*/0);
    std::printf("\nDirect Monte Carlo:    LER = %.3e  "
                "(%llu failures / %llu shots)\n",
                direct.ler,
                static_cast<unsigned long long>(direct.failures),
                static_cast<unsigned long long>(direct.shots));

    // ... and with the paper's Eq. 1 importance sampler, sharded
    // across all hardware threads.
    qec::LerOptions options;
    options.kMax = 16;
    options.samplesPerK = 1000;
    options.threads = 0;
    const qec::LerEstimate est =
        qec::estimateLer(ctx, *decoder, options);
    std::printf("Importance sampling:   LER = %.3e  "
                "(expected faults/shot = %.2f)\n",
                est.ler, est.expectedFaults);
    return 0;
}
