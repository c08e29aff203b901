/**
 * @file
 * The decoding subgraph of one syndrome, rebuilt in place.
 *
 * Every predecoder starts from the same view: the flipped detectors
 * and the decoding-graph edges between them (the paper's "decoding
 * subgraph", Fig. 9). This type centralizes that construction —
 * previously duplicated across promatch/clique/smith/hierarchical —
 * as a flat CSR adjacency that rebuilds from a DecodeWorkspace
 * without allocating once its buffers are warm.
 *
 * The rebuild walks the graph's pair-edge CSR (8-byte half-edge
 * records, boundary edges pre-filtered) and tests membership with a
 * dense detector -> local-index scratch array (O(1) per half-edge;
 * only the previous syndrome's entries are cleared between builds),
 * so construction touches no GraphEdge AoS records at all. Edge
 * weight/obs lookups go through the graph's SoA hot fields.
 *
 * Liveness (kill / refresh / #dependent counters) supports the
 * iterative Promatch rounds; one-pass predecoders just use the
 * static structure (degree / soleNeighbor / soleEdge).
 *
 * Liveness is maintained incrementally: kill(i) decrements the live
 * degree of i's alive neighbors and propagates the induced
 * #dependent deltas (a degree 2 -> 1 transition makes a node
 * dependent on its last neighbor; 1 -> 0 has nothing left to
 * notify), recording every touched index on a dirty list. refresh()
 * — the per-round synchronization point that consumers like
 * Promatch call between kill batches — then just publishes the
 * dirty entries into the snapshot arrays read by degree() /
 * createsSingletonHw(), instead of recomputing all V+E counters
 * from scratch. Between refresh() calls the snapshot intentionally
 * lags the kills, matching the per-round hardware evaluation the
 * predecoders model (and the historical full-recompute behavior
 * bit for bit; equivalence is enforced by a randomized kill-
 * sequence test in tests/test_workspace.cpp).
 */

#ifndef QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP
#define QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"

namespace qec
{

/** Flat-CSR defect subgraph with liveness tracking (Fig. 9). */
class SyndromeSubgraph
{
  public:
    /**
     * Rebuild from a sorted defect list, reusing all buffers. All
     * nodes start alive; degrees are the in-set adjacency counts
     * and the #dependent counters are refreshed.
     */
    void build(const DecodingGraph &graph,
               std::span<const uint32_t> defects);

    int size() const { return static_cast<int>(dets_.size()); }
    int aliveCount() const { return aliveCount_; }
    uint32_t det(int i) const { return dets_[i]; }
    bool alive(int i) const { return alive_[i] != 0; }
    int degree(int i) const { return deg_[i]; }
    /** Published #dependent counter of node i (Fig. 11): how many
     *  alive neighbors have live degree 1. */
    int dependentCount(int i) const { return dependent_[i]; }

    /** Local index of a detector of the current build, or -1 when
     *  the detector is not part of this syndrome. */
    int32_t
    localIndexOf(uint32_t det) const
    {
        return localIndex_[det];
    }

    /** In-set neighbors of i (local indices), dead ones included. */
    std::span<const int32_t>
    neighbors(int i) const
    {
        return {adjNode_.data() + adjOffset_[i],
                adjNode_.data() + adjOffset_[i + 1]};
    }

    /**
     * The single in-set neighbor of a static-degree-1 node (the
     * last one recorded, matching the historical per-predecoder
     * scan order); meaningful only when degree(i) == 1.
     */
    int
    soleNeighbor(int i) const
    {
        return adjNode_[adjOffset_[i + 1] - 1];
    }

    /** Edge id to soleNeighbor(i). */
    uint32_t
    soleEdge(int i) const
    {
        return adjEdge_[adjOffset_[i + 1] - 1];
    }

    /** Edge id of row i's o-th entry (parallel to neighbors(i)). */
    uint32_t
    edgeIdAt(int i, int32_t o) const
    {
        return adjEdge_[adjOffset_[i] + o];
    }

    /**
     * Publish the live degree and #dependent counters accumulated
     * by kill() into the snapshot read by degree() /
     * createsSingletonHw() (Fig. 9). O(entries touched since the
     * last refresh), not O(V + E).
     */
    void refresh();

    /** Append the alive-alive edges (i < j) of the current
     *  subgraph to `out` (any push_back container of pairs). */
    template <typename OutVec>
    void
    appendAliveEdges(OutVec &out) const
    {
        for (int i = 0; i < size(); ++i) {
            if (!alive_[i]) {
                continue;
            }
            for (int32_t o = adjOffset_[i]; o < adjOffset_[i + 1];
                 ++o) {
                const int j = adjNode_[o];
                if (j > i && alive_[j]) {
                    out.push_back({i, j});
                }
            }
        }
    }

    /** Id of the direct edge between two alive neighbors. */
    uint32_t edgeIdOf(int i, int j) const;

    /** Weight of the direct edge (i, j), from the SoA hot fields. */
    Weight
    edgeWeightOf(int i, int j) const
    {
        return graph_->edgeWeight(edgeIdOf(i, j));
    }

    /** Hardware singleton check (Fig. 11): would matching (i, j)
     *  strand a degree-1 neighbor? */
    bool
    createsSingletonHw(int i, int j) const
    {
        const int di = dependent_[i] - (deg_[j] == 1 ? 1 : 0);
        const int dj = dependent_[j] - (deg_[i] == 1 ? 1 : 0);
        return di + dj > 0;
    }

    /** Exact singleton check: recompute each neighbor's degree
     *  after removing i and j. Also catches a shared degree-2
     *  neighbor, which the hardware counters miss. */
    bool createsSingletonExact(int i, int j) const;

    bool adjacent(int a, int b) const;

    /** Would removing only node j (a Step-3 pair partner) strand a
     *  neighbor of j? */
    bool
    removalCreatesSingleton(int j) const
    {
        return dependent_[j] > 0;
    }

    void kill(int i);

  private:
    const DecodingGraph *graph_ = nullptr;
    std::vector<uint32_t> dets_;    //!< Local index -> detector.
    std::vector<uint8_t> alive_;
    // Local adjacency in CSR form: row i spans
    // [adjOffset_[i], adjOffset_[i+1]) of adjNode_/adjEdge_.
    std::vector<int32_t> adjOffset_;
    std::vector<int32_t> adjNode_;
    std::vector<uint32_t> adjEdge_;
    // Snapshot counters, published by refresh(); what degree() and
    // the singleton checks read between rounds.
    std::vector<int> deg_;
    std::vector<int> dependent_;
    // Live counters, maintained eagerly by kill(); dirty_ records
    // which indices diverged from the snapshot (duplicates are
    // fine — publishing is idempotent).
    std::vector<int> degLive_;
    std::vector<int> depLive_;
    std::vector<int32_t> dirty_;
    // Dense detector -> local index scratch (-1 = not in set). Only
    // the previous build's entries are cleared, so a rebuild is
    // O(defects + incident half-edges), not O(numDetectors).
    std::vector<int32_t> localIndex_;
    int aliveCount_ = 0;
};

} // namespace qec

#endif // QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP
