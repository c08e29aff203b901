/**
 * @file
 * Tables 4 and 5: latency of predecoding (Table 4) and of the full
 * Promatch + Astrea decode (Table 5) on high-HW syndromes
 * (HW >= 10), modeled at 250 MHz.
 *
 * Paper values (ns):
 *   Table 4 (predecode):        d11 max 824, avg 68.2;
 *                               d13 max 928, avg 70.0
 *   Table 5 (predecode+main):   d11 max 904, avg 524.2;
 *                               d13 max 960, avg 526.0
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "table4_table5_latency",
                "Promatch latency on high-HW syndromes");

    ReportTable t4("Table 4: predecode latency of high-HW "
                   "syndromes (ns)",
                   {"d", "max", "avg", "paper max", "paper avg"});
    ReportTable t5("Table 5: full decode latency of high-HW "
                   "syndromes (ns)",
                   {"d", "max", "avg", "paper max", "paper avg"});

    const struct
    {
        int d;
        double paper4_max, paper4_avg, paper5_max, paper5_avg;
    } rows[] = {
        {11, 824.0, 68.2, 904.0, 524.2},
        {13, 928.0, 70.0, 960.0, 526.0},
    };

    for (const auto &row : rows) {
        const auto &ctx = ExperimentContext::get(row.d, 1e-4);
        auto decoder = build(
            DecoderSpec::parse(bench.specOr("promatch+astrea")),
            ctx.graph(), ctx.paths());

        // High-HW latency statistics ride on the parallel LER
        // engine's trace observer; samples replay in a fixed order,
        // so the statistics are thread-count independent.
        LerOptions options = bench.lerOptions(400);
        options.skipBelowK = 5; // k < 5 cannot produce HW > 10.
        options.seed = 0x1a7e;
        options.collectTraces = true; // Predecode ns is trace data.
        // High-HW = the predecoder-engaging population; skip the
        // decode for everything else.
        options.decodeFilter =
            [](int, const std::vector<uint32_t> &defects) {
                return defects.size() > 10;
            };
        WeightedStats predecode_ns, total_ns;
        estimateLer(
            ctx, *decoder, options,
            [&](const SampleView &view) {
                // The pipeline aborts at the effective budget
                // (960 ns), so observed latencies cap there.
                const double cap =
                    LatencyConfig{}.effectiveBudgetNs();
                predecode_ns.add(
                    std::min(view.trace->predecodeNs, cap),
                    view.weight);
                total_ns.add(
                    std::min(view.result.latencyNs, cap),
                    view.weight);
            });

        t4.addRow({std::to_string(row.d),
                   formatFixed(predecode_ns.max(), 0),
                   formatFixed(predecode_ns.mean(), 1),
                   formatFixed(row.paper4_max, 0),
                   formatFixed(row.paper4_avg, 1)});
        t5.addRow({std::to_string(row.d),
                   formatFixed(total_ns.max(), 0),
                   formatFixed(total_ns.mean(), 1),
                   formatFixed(row.paper5_max, 0),
                   formatFixed(row.paper5_avg, 1)});
        std::printf("  done: d=%d (%zu high-HW samples)\n", row.d,
                    predecode_ns.count());
    }
    bench.emit(t4);
    bench.emit(t5);
    std::printf(
        "\nShape checks: predecode averages sit at tens of ns "
        "(most high-HW syndromes\nneed one or two rounds of Step "
        "1); full-decode averages are dominated by the\n~500 ns "
        "Astrea pass at HW 10; maxima approach but respect the "
        "960 ns budget.\n");
    return bench.finish();
}
