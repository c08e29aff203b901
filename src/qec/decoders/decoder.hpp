/**
 * @file
 * Common decoder interface.
 *
 * A decoder receives a syndrome (the sorted list of flipped detector
 * indices) and predicts which logical observables flipped. Real-time
 * decoders also report a modeled hardware latency; exceeding the
 * budget marks the result aborted, which the harness counts as a
 * logical error (§6.4 of the paper).
 *
 * Memory contract: `decode()` borrows a caller-owned
 * DecodeWorkspace holding every per-decode scratch structure; a warm
 * workspace makes steady-state decoding allocation-free.
 * DecodeResult itself is plain data — the error-chain lengths live
 * in DecodeTrace, computed only when a trace is requested.
 *
 * Thread-safety contract: a decoder is an immutable engine — it
 * holds only its graph, its path table and its configuration, and
 * all per-decode state lives in the caller's workspace and
 * DecodeTrace. One decoder instance (or workspace) must not be
 * shared between threads, but `clone()` produces an independent,
 * identically configured instance; WorkerDecoders + parallelFor fan
 * syndromes across threads, each worker on its own clone and
 * workspace, with results identical to a serial run.
 *
 * Decoder stacks are described by a DecoderSpec and constructed
 * through the component registry — see qec/api/decoder_spec.hpp and
 * qec/api/registry.hpp, or docs/api.md for the spec grammar.
 */

#ifndef QEC_DECODERS_DECODER_HPP
#define QEC_DECODERS_DECODER_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/matching/matching_problem.hpp"

namespace qec
{

struct DecodeWorkspace;

/** Which Promatch algorithm steps a syndrome exercised (Table 6). */
struct StepUsage
{
    bool step1 = false; //!< Isolated pairs.
    bool step2 = false; //!< Singleton-safe neighbor matches.
    bool step3 = false; //!< Singleton rescue via shortest paths.
    bool step4 = false; //!< Risky matches (may create singletons).

    /** Deepest step reached: 0 (none) .. 4. */
    int
    deepest() const
    {
        if (step4) return 4;
        if (step3) return 3;
        if (step2) return 2;
        if (step1) return 1;
        return 0;
    }
};

/**
 * Outcome of decoding one syndrome. Plain data (trivially
 * copyable): returning or storing one never touches the heap.
 */
struct DecodeResult
{
    /** Predicted observable flips (bit o = observable o). */
    uint64_t predictedObs = 0;
    /** Total weight of the chosen correction (lower = more likely). */
    double weight = 0.0;
    /** Modeled hardware latency; 0 for software baselines. */
    double latencyNs = 0.0;
    /** True if the decoder gave up or blew the deadline. */
    bool aborted = false;
    /** False for software (non-real-time) decoders. */
    bool realTime = true;
};

/**
 * Caller-owned introspection of one decode.
 *
 * Pass a DecodeTrace* to decode() to collect it; pass nullptr to
 * skip all trace bookkeeping on the hot path. Every decoder fills
 * only the fields it understands and resets the rest, so a trace
 * can be reused across calls. Composite decoders (pipeline,
 * parallel) additionally record one child trace per sub-decoder.
 */
struct DecodeTrace
{
    // --- Pipeline stage (PredecodedDecoder).
    bool predecoderEngaged = false;
    int hwBefore = 0;       //!< Syndrome HW entering the stack.
    int hwAfter = 0;        //!< Residual HW handed to the main decoder.
    double predecodeNs = 0.0;
    double mainNs = 0.0;
    StepUsage steps;        //!< Promatch step usage (Table 6).
    int predecodeRounds = 0;
    // --- Parallel arbitration (ParallelDecoder).
    int parallelWinner = -1; //!< 0 = first, 1 = second, -1 = n/a.
    // --- Search decoders (Astrea-G).
    long long searchStates = 0;
    bool searchTruncated = false;
    // --- Matching decoders (MWPM, Astrea, Astrea-G).
    // Error-chain lengths of the final matching (Fig. 5 stats);
    // composite stacks hoist the winning child's lengths here.
    std::vector<int> chainLengths;
    // --- Correction-extracting decoders (UnionFind).
    std::vector<uint32_t> correctionEdges;
    // --- Sub-decoder traces of composite stacks, in child order.
    // Pipeline: children[0] is the main decoder's trace *when the
    // main decoder ran* (empty if an NSM predecoder resolved the
    // whole syndrome locally). Parallel: children[0]/[1] are the
    // two sides.
    std::vector<DecodeTrace> children;

    /**
     * Clear for reuse, keeping vector capacity across decodes.
     * Out of line (decoder.cpp): children.clear() destroys child
     * traces, whose inlined vector deletes would otherwise land in
     * every audited decode body (tools/rt_audit exempts the reset
     * symbol instead).
     */
    void reset();
};

/** Abstract decoder over a fixed decoding graph. */
class Decoder
{
  public:
    Decoder(const DecodingGraph &graph, const PathTable &paths)
        : graph_(graph), paths_(paths)
    {
    }
    virtual ~Decoder() = default;

    /**
     * Decode one syndrome given as sorted flipped-detector indices,
     * borrowing the caller's workspace for all scratch state.
     *
     * @param defects    sorted flipped-detector indices
     * @param workspace  caller-owned scratch; reusing one (warm)
     *                   workspace across calls makes steady-state
     *                   decoding allocation-free. Must not be
     *                   shared between threads.
     * @param trace      optional caller-owned introspection sink;
     *                   the decoder resets and fills it. nullptr
     *                   skips all trace bookkeeping (including
     *                   chain-length extraction).
     */
    virtual DecodeResult decode(std::span<const uint32_t> defects,
                                DecodeWorkspace &workspace,
                                DecodeTrace *trace = nullptr) = 0;

    /**
     * Independent copy with identical configuration, bound to the
     * same graph/path tables. Clones share no mutable state with
     * the original, so each thread of a batched harness can decode
     * on its own clone.
     */
    virtual std::unique_ptr<Decoder> clone() const = 0;

    /**
     * Decode all `lanes` shots of a 64-lane syndrome block (one
     * word per detector, shot l = bit l — the FrameSimulator's
     * BatchResult layout) on the calling thread.
     *
     * Results land at results[0 .. lanes), and every lane's result
     * is bit-identical to a serial decode() of that lane's defect
     * list (fuzz-enforced registry-wide by
     * tests/test_block_decode.cpp). The default implementation
     * extracts the lanes and decodes them one at a time; pipeline
     * stacks override it to carry all lanes through predecode
     * together (see PredecodedDecoder::decodeBlock).
     *
     * @param detectorWords one 64-lane word per detector; bits of
     *                      lanes >= `lanes` are ignored
     * @param lanes         shots in the block, in [1, 64]
     * @param workspace     caller-owned scratch (as decode())
     * @param results       caller-owned array of >= `lanes` slots
     */
    virtual void decodeBlock(std::span<const uint64_t> detectorWords,
                             int lanes, DecodeWorkspace &workspace,
                             DecodeResult *results);

    /** Short identifier used in reports (e.g. "Promatch||AG"). */
    virtual std::string name() const = 0;

    /**
     * True when this decoder's problem builder reads the
     * workspace's gathered DistanceView (the dense matchers).
     * Sparse-core decoders return false so composite stacks can
     * skip shared gathers that nobody would consume.
     */
    virtual bool wantsDistanceView() const { return true; }

    const DecodingGraph &graph() const { return graph_; }
    const PathTable &paths() const { return paths_; }

  protected:
    const DecodingGraph &graph_;
    const PathTable &paths_;
};

/**
 * Scatter the set bits of a detector-major 64-lane block into
 * per-lane sorted defect lists. Only the buckets of lanes in
 * `laneMask` are cleared and filled; the rest are left untouched
 * (the block decode path relies on that to keep low-HW lanes'
 * buckets alive across a predecodeBlock call).
 */
void scatterBlockLanes(std::span<const uint64_t> detectorWords,
                       uint64_t laneMask,
                       std::array<std::vector<uint32_t>, 64> &lanes);

/**
 * Per-worker decoder engines (plus scratch workspaces) for a
 * deterministic fork/join region: worker 0 decodes on the source
 * instance (the calling thread's slice), workers 1..W-1 on clones.
 * Clones are created serially in the constructor — the Decoder
 * contract does not promise clone() is safe while another thread
 * decodes on the source — and shared by estimateLer and
 * estimateLerDirect. Each worker owns its DecodeWorkspace, reused
 * across every syndrome that worker decodes.
 */
class WorkerDecoders
{
  public:
    WorkerDecoders(Decoder &source, int workers);
    ~WorkerDecoders();

    /** The engine worker `worker` must decode on. */
    Decoder *
    engine(int worker) const
    {
        return worker == 0 ? &source_
                           : clones_[worker - 1].get();
    }

    /** The scratch workspace owned by worker `worker`. */
    DecodeWorkspace &
    workspace(int worker) const
    {
        return *workspaces_[worker];
    }

  private:
    Decoder &source_;
    std::vector<std::unique_ptr<Decoder>> clones_;
    std::vector<std::unique_ptr<DecodeWorkspace>> workspaces_;
};

} // namespace qec

#endif // QEC_DECODERS_DECODER_HPP
