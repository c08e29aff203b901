/**
 * @file
 * Union-Find decoder (the AFS-class baseline of Fig. 4).
 *
 * Implements the Delfosse–Nickerson cluster-growth + peeling decoder
 * directly on the decoding graph: odd clusters grow by half-edges,
 * merging on contact, until every cluster is even or touches the
 * boundary; each cluster is then peeled along a spanning forest to
 * extract the correction. Growth is unweighted (uniform), which is
 * exactly what makes union-find less accurate than MWPM at the
 * near-term p = 1e-4 regime the paper evaluates (§7.2).
 *
 * All per-decode state (cluster forest, growth table, spanning
 * forest, peeling flags) lives in a decoder-owned scratch block
 * sized to the decoding graph and reused across decodes, so a warm
 * instance decodes without heap allocation. Clones get their own
 * scratch, keeping the per-thread contract.
 */

#ifndef QEC_DECODERS_UNION_FIND_HPP
#define QEC_DECODERS_UNION_FIND_HPP

#include "qec/decoders/decoder.hpp"

namespace qec
{

/** Cluster-growth union-find decoder. */
class UnionFindDecoder : public Decoder
{
  public:
    // Out of line: the scratch_ member's deleter needs the full
    // Scratch type (see union_find.cpp).
    UnionFindDecoder(const DecodingGraph &graph,
                     const PathTable &paths);
    ~UnionFindDecoder() override;

    /**
     * Decode; the chosen correction-edge ids land in
     * DecodeTrace::correctionEdges (for validity checks in tests).
     * Uses decoder-owned scratch; the workspace is passed through
     * for interface uniformity only.
     */
    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder> clone() const override;

    std::string name() const override { return "UnionFind"; }

  private:
    /** Per-decode scratch, lazily sized to the decoding graph and
     *  reused across decodes (defined in union_find.cpp). */
    struct Scratch;
    std::unique_ptr<Scratch> scratch_;
};

} // namespace qec

#endif // QEC_DECODERS_UNION_FIND_HPP
