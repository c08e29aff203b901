/**
 * @file
 * The reusable scratch workspace of the decode hot path.
 *
 * Every per-decode data structure that used to be rebuilt on the
 * heap for each syndrome — the predecoder's defect subgraph, the
 * matching layer's defect graph and solver state, the pipeline's
 * residual handoff — lives here instead, owned by the caller and
 * borrowed by `Decoder::decode` / `Predecoder::predecode`. All
 * members reuse their capacity across decodes, so a warm workspace
 * makes steady-state decoding allocation-free (enforced by the
 * counting-allocator suite in tests/test_workspace.cpp).
 *
 * Ownership and aliasing contract:
 *  - One workspace per thread: a workspace must never be used by
 *    two threads at once. Decoders and predecoders own none; the
 *    batched harness allocates one per worker (see WorkerDecoders)
 *    and each StreamingDecoder owns the one it decodes on.
 *  - Composite decoders pass the *same* workspace down to their
 *    children; the members are used strictly sequentially (the
 *    predecoder finishes with `subgraph` before the main decoder
 *    touches `defectGraph`), and only `predecodeResult.residual`
 *    must survive a nested decode (the pipeline's handoff — main
 *    decoders must not write `predecodeResult`).
 *  - No member caches pair cells across decodes: every component
 *    reads the cells it needs through readPairCells
 *    (distance_oracle.hpp) on each decode, so a workspace reused on
 *    another table — even one built at the same address — decodes
 *    exactly as a fresh one would.
 *  - `arena` is for transients that die before the owning
 *    component returns: a component may reset() it at the top of
 *    its own decode/predecode step, and must not hold arena spans
 *    across a call into another component.
 *
 * See docs/api.md ("Workspace & memory contract") for the narrative
 * version.
 */

#ifndef QEC_DECODERS_WORKSPACE_HPP
#define QEC_DECODERS_WORKSPACE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "qec/graph/distance_oracle.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/matching/near_exhaustive.hpp"
#include "qec/matching/sparse_matcher.hpp"
#include "qec/predecode/predecoder.hpp"
#include "qec/predecode/syndrome_subgraph.hpp"
#include "qec/util/arena.hpp"

namespace qec
{

/**
 * Scratch of the 64-lane packed-input entry points
 * (Decoder::decodeBlock / Predecoder::predecodeBlock). Serial
 * decode()/predecode() never touch it, which is what lets the block
 * entry points hand `laneDefects[l]` spans to nested serial calls.
 * `laneWords` is a dense detector -> lane-word merge scratch with an
 * all-zero invariant between uses (predecodeBlock re-zeroes exactly
 * the entries it touched, recorded in `touched`).
 */
struct BlockScratch
{
    /** Per-lane extracted defect lists (see scatterBlockLanes). */
    std::array<std::vector<uint32_t>, 64> laneDefects;
    /** Dense detector -> lane-word scratch, all-zero between uses. */
    std::vector<uint64_t> laneWords;
    /** Detectors whose laneWords entry is currently nonzero. */
    std::vector<uint32_t> touched;
};

/** Caller-owned scratch arena for one decode stack on one thread. */
struct DecodeWorkspace
{
    /** Bump storage for per-decode transients (see file comment). */
    MonotonicArena arena;
    /** Predecode layer: the defect subgraph, rebuilt in place. */
    SyndromeSubgraph subgraph;
    /** Pair-cell rows of a DeferPairs table (readPairCells):
     *  Promatch Step 3 and the DefectGraph build grow them here.
     *  Holds no cell between queries. */
    DistanceOracle oracle;
    /** Pipeline handoff: the predecoder's output, incl. residual. */
    PredecodeResult predecodeResult;
    /** Matching layer: the complete defect graph of a syndrome. */
    DefectGraph defectGraph;
    /** Matching layer: the solution slot shared by all solvers. */
    MatchingSolution solution;
    /** Reusable brute-force engine (Astrea model). */
    ExhaustiveSolver exhaustive;
    /** Reusable budgeted branch-and-bound engine (Astrea-G). */
    NearExhaustiveSolver nearExhaustive;
    /** Sparse matching layer: pruned candidate view of a syndrome
     *  (holds its own lazy DistanceOracle). */
    SparseMatchingProblem sparseProblem;
    /** Reusable sparse local-growth matcher (SparseMWPM decoder). */
    SparseMatcher sparseMatcher;
    /** 64-lane packed-input scratch (decodeBlock and
     *  predecodeBlock only). */
    BlockScratch block;
};

} // namespace qec

#endif // QEC_DECODERS_WORKSPACE_HPP
