/**
 * @file
 * On-demand shortest-path distances over the decoding graph.
 *
 * A DistanceOracle answers the same queries as a PathTable row —
 * PathCell{dist, obs, hops} from one source detector to a set of
 * target detectors — but computes them with a per-query Dijkstra
 * over the CSR adjacency instead of reading an O(V²) precomputed
 * matrix. It exists so high-distance stacks can run on a
 * PathTable built with DeferPairs (O(V) columns only).
 *
 * One row read: readPairCells() below is the only decode-path code
 * that tells the two table modes apart. It copies the cells of one
 * source's row out of a dense table and grows them with an oracle
 * on a DeferPairs table. Its three readers — the sparse candidate
 * build, the DefectGraph block of Astrea / Astrea-G and Promatch
 * Step 3 — read every pair cell through it and keep no cell past
 * the decode that read it.
 *
 * Bit-identity: the oracle relaxes with the table's relaxPairEdges()
 * rule, whose labels do not depend on pop order (path_table.hpp), so
 * every cell it settles equals the dense table's cell for the same
 * pair even though the two pop equal-distance nodes in different
 * orders.
 *
 * Queue: a Dial ring. Distances are integers, and every queued
 * distance lies in [du, du + maxW] for the last popped du (it was
 * queued from a node settled at or before du, over one edge of
 * weight at most maxW = DecodingGraph::maxEdgeWeight()). So a ring of
 * at least maxW + 1 slots (a power of two, slot = dist mod size)
 * never holds two live distances in one slot, and an occupancy
 * bitmap finds the next non-empty slot. Each slot is a LIFO list
 * chained through one entry pool; within a slot the order is
 * arbitrary. An entry whose node has since been queued closer is
 * stale and skipped on pop.
 *
 * Per-target truncation: Dijkstra settles nodes in nondecreasing
 * distance order and a settled label is final. Each target carries
 * its own bound, and the search stops as soon as the popped distance
 * exceeds the largest bound among the targets not yet settled; every
 * such target then lies beyond its own bound.
 *
 * Memory contract: the oracle keeps one 8-byte PathLabel and one
 * target slot per detector, and every query leaves them as it found
 * them, so no query needs an O(V) clear. Every label a query lowers
 * belongs to a node it queued (an equal-distance improvement only
 * happens to a node already queued at that distance), so the next
 * grow resets exactly the nodes listed in the entry pool; grow
 * clears the target slots it set before it returns. All scratch is
 * reused, so a warm oracle performs zero heap allocations per query
 * (the DecodeWorkspace property); the entry pool keeps its
 * high-water capacity. One oracle must not be shared between
 * threads; the graph data it reads, pair-edge records included, is
 * immutable and shared.
 */

#ifndef QEC_GRAPH_DISTANCE_ORACLE_HPP
#define QEC_GRAPH_DISTANCE_ORACLE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"

namespace qec
{

/** Reusable single-source Dijkstra engine over a decoding graph. */
class DistanceOracle
{
  public:
    /** Bind to a graph, sizing the scratch; cheap when already
     *  bound to the same graph. */
    void bind(const DecodingGraph &graph);

    const DecodingGraph *boundGraph() const { return graph_; }

    /**
     * Single-source growth from `src`. For every k, out[k] is the
     * PathCell for targets[k] (bit-identical to the dense PathTable
     * entry) when the target settles before the search stops, and
     * PathCell{} (unreachable) otherwise. The search stops once every target is
     * settled, or once the frontier's distance exceeds bounds[k] for
     * every unsettled k. So a target whose distance is <= bounds[k]
     * always comes back exact; one beyond its bound may come back
     * exact or unreachable. Targets unreachable without crossing the
     * boundary come back unreachable.
     *
     * `targets` must be distinct detector indices; `bounds` and
     * `out` must hold targets.size() entries. `src` may itself
     * appear in `targets` (settled immediately at distance zero,
     * like the table's diagonal).
     */
    void grow(uint32_t src, std::span<const uint32_t> targets,
              std::span<const Weight> bounds, PathCell *out);

  private:
    void push(uint32_t dist, uint32_t node);
    bool pop(uint32_t &node);

    /** Empty slot of targetSlot_ and head_. */
    static constexpr uint32_t kNoEntry = ~uint32_t{0};

    const DecodingGraph *graph_ = nullptr;
    uint32_t n_ = 0;
    /** Label per node; unreachable outside a query (file comment). */
    std::vector<PathLabel> labels_;
    /** Slot into `out` per detector; kNoEntry outside a query. */
    std::vector<uint32_t> targetSlot_;
    // Target slots by descending bound: the stop test reads the
    // first unsettled one.
    std::vector<uint32_t> byBound_;
    // Dial ring: head_[dist & (head_.size() - 1)] starts the list of
    // the nodes queued at dist (kNoEntry when empty), chained through
    // pool_; bit s of occupied_ is set while slot s is non-empty.
    struct Entry
    {
        uint32_t node;
        uint32_t next;
    };
    std::vector<uint32_t> head_;
    std::vector<Entry> pool_;
    std::vector<uint64_t> occupied_;
    uint64_t curDist_ = 0; //!< Distance of the slot being drained.
    size_t queued_ = 0;    //!< Entries in the ring, stale included.
};

/**
 * The cells of `src`'s row at `targets`: out[k] is the cell of
 * (src, targets[k]). A dense table copies them out of its row; a
 * DeferPairs table grows them with `oracle` (bound to the table's
 * graph here), under DistanceOracle::grow's contract: a target
 * within bounds[k] comes back exact, one beyond it exact or
 * unreachable. A dense read ignores the bounds, so a caller must
 * only act on cells within their bounds. Same requirements on
 * `targets`, `bounds` and `out` as grow.
 */
void readPairCells(const PathTable &paths, DistanceOracle &oracle,
                   uint32_t src, std::span<const uint32_t> targets,
                   std::span<const Weight> bounds, PathCell *out);

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_ORACLE_HPP
