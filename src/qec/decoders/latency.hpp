/**
 * @file
 * Hardware latency model (§6.4 of the paper).
 *
 * All real-time decoders are modeled at 250 MHz (4 ns per cycle) with
 * a 1 us decoding budget. Running Promatch beside Astrea-G reserves
 * 10 cycles for the final solution comparison, leaving 960 ns of
 * effective budget. Astrea's brute-force engine is modeled as walking
 * matchingCount(HW) pairings (945 at HW = 10) at `parallelism`
 * pairings per cycle plus a fixed pipeline fill, calibrated to
 * Astrea's published ~456 ns at HW = 10.
 */

#ifndef QEC_DECODERS_LATENCY_HPP
#define QEC_DECODERS_LATENCY_HPP

#include <cstdint>

namespace qec
{

/** Shared timing constants for the real-time decoder models. */
struct LatencyConfig
{
    double nsPerCycle = 4.0;  //!< 250 MHz.
    double budgetNs = 1000.0; //!< Real-time deadline (1 us).
    int compareCycles = 10;   //!< ||AG final comparison reserve.
    int astreaMaxHw = 10;     //!< Astrea handles HW <= 10 (§2.3).
    int astreaParallelism = 8; //!< Pairings evaluated per cycle.
    int astreaFixedCycles = 5; //!< Pipeline fill/drain.
    /** Promatch subgraph-generation / register-load overhead charged
     *  once whenever the predecoder engages (§4.2). */
    int promatchFixedCycles = 16;
    /**
     * Parallel Promatch edge pipelines. §6.4 notes the predecoder is
     * light enough to replicate; each round's edge-walk charge is
     * divided across lanes. Default 1 (the paper's evaluation).
     */
    int promatchLanes = 1;
    /** Astrea-G near-exhaustive search budget, in search states. */
    long long astreaGSearchBudget = 1880;
    /** Astrea-G pruning threshold on chain probability (~LER). */
    double astreaGPruneProbability = 1e-13;
    /**
     * Let Astrea-G's search use an admissible lower bound to prune
     * branches. The hardware's greedy near-exhaustive walk has no
     * such bound, so this is off by default; enabling it is the
     * "smarter Astrea-G" ablation.
     */
    bool astreaGUseBound = false;

    /** Budget left after reserving the comparison cycles. */
    double effectiveBudgetNs() const
    {
        return budgetNs - compareCycles * nsPerCycle;
    }

    /** Largest HW whose matchingCount fits in a long long (33!!);
     *  build() rejects a larger astreaMaxHw. */
    static constexpr int kMaxAstreaHw = 34;

    /** Number of pairings Astrea's engine enumerates at this HW
     *  (hw <= kMaxAstreaHw). */
    static long long matchingCount(int hw);

    /** Modeled Astrea cycles for a syndrome of this Hamming weight;
     *  -1 if the HW exceeds the engine's reach. */
    long long astreaCycles(int hw) const;

    /** Modeled Astrea latency in ns; negative if out of reach. */
    double astreaLatencyNs(int hw) const;
};

} // namespace qec

#endif // QEC_DECODERS_LATENCY_HPP
