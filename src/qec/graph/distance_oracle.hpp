/**
 * @file
 * On-demand shortest-path distances over the decoding graph.
 *
 * A DistanceOracle answers the same queries as a PathTable row —
 * PathCell{dist, obs, hops} from one source detector to a set of
 * target detectors — but computes them with a per-query Dijkstra
 * over the CSR adjacency instead of reading an O(V²) precomputed
 * matrix. It exists so high-distance stacks can run on a
 * PathTable built with DeferPairs (O(V) columns only):
 * DistanceView falls back to it for gathers, and the sparse matcher
 * uses its truncated growth to discover candidate edges locally.
 *
 * Bit-identity contract: the relax loop reproduces
 * PathTable::buildPairs exactly — the same (double dist, node id)
 * pop sequence, the same strict-improvement relaxation over the
 * detector's pair edges in adjacentEdges() order (boundary edges are
 * never intermediate hops; pairNeighbors()/pairWeights() are that
 * order with them filtered out), double accumulation of
 * GraphEdge::weight along paths, and one float narrowing on record.
 * Every cell the oracle settles is therefore bit-identical to the
 * dense table's cell for the same pair.
 *
 * Exact-order bucket queue (why the pop sequence is the table's).
 * The table pops a binary heap ordered by (dist, node); distinct
 * entries are totally ordered (a node is pushed again only with a
 * strictly smaller dist), so that sequence is fully determined by
 * the entry set, not by the heap. The oracle files each entry under
 * key(d) = floor(d * invWidth) in a ring of kBuckets slots (slot
 * key % kBuckets) and drains the current key's slot in sorted order:
 *   1. key() is monotone: d1 < d2 implies key(d1) <= key(d2),
 *      because multiplying by the positive invWidth and flooring
 *      are both monotone in floating point. So every entry under a
 *      later key is strictly larger than every entry under the
 *      current one, and draining keys in increasing order, each
 *      sorted, pops in (dist, node) order.
 *   2. A relaxation from the popped entry (key k) adds a weight
 *      w >= 0, so its key is >= k: no entry ever lands under an
 *      earlier key. When w is at least the width it lands under a
 *      later key; one that lands under the current key anyway (a
 *      weight below the width, or rounding at a bucket edge) goes to
 *      a small binary heap, and each pop takes the smaller of the
 *      two heads. Order is therefore exact for any width; the width
 *      only decides how much work the sorted path does.
 *   3. Every queued entry lies in [du, du + maxW] for the last
 *      popped du (it was pushed from a node settled at or before
 *      du), so live keys span at most maxW * invWidth + 2 values.
 *      The width is maxW / (kBuckets - 4), so that span is at most
 *      kBuckets - 2 (rounding included) and two live keys never
 *      share a slot. The ring is bounded for any DEM, however
 *      close to 0 its weights come.
 * At d = 17 the pair weights span [8.09, 9.84], so the width is
 * 0.164: far below the smallest weight (no relaxation takes the
 * heap path) and a bucket holds a handful of entries, which the
 * slot sort orders almost for free. A DEM with weights near 0 sends
 * more entries to the heap and degrades toward a binary heap.
 *
 * Per-target truncation: Dijkstra settles nodes in nondecreasing
 * distance order and a settled label is final. Each target carries
 * its own bound, and the search stops as soon as the popped
 * distance, narrowed to float, exceeds the largest bound among the
 * targets not yet settled. Every such target then lies at or beyond
 * the popped distance, so its float cell would exceed its own bound
 * (float narrowing is monotone); the caller's test against the
 * bound can treat it as infinite. Narrowing before the compare keeps
 * "beyond the bound" true of the float a dense-table consumer reads.
 *
 * Memory contract: all scratch is epoch-stamped and reused, so a
 * warm oracle performs zero heap allocations per query (the
 * DecodeWorkspace property); each ring slot keeps its high-water
 * capacity. One oracle must not be shared between threads; the
 * graph data it reads is immutable.
 */

#ifndef QEC_GRAPH_DISTANCE_ORACLE_HPP
#define QEC_GRAPH_DISTANCE_ORACLE_HPP

#include <cstdint>
#include <span>
#include <utility>
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
     * {inf, 0, 255} otherwise. The search stops once every target
     * is settled, or once the frontier's float distance exceeds
     * bounds[k] for every unsettled k. So a target whose float
     * distance is <= bounds[k] always comes back exact; one beyond
     * its bound may come back exact or infinite. Infinite bounds
     * settle every reachable target (a full table-row gather).
     * Targets unreachable without crossing the boundary are
     * infinite.
     *
     * `targets` must be distinct detector indices; `bounds` and
     * `out` must hold targets.size() entries. `src` may itself
     * appear in `targets` (settled immediately at distance zero,
     * like the table's diagonal).
     */
    void grow(uint32_t src, std::span<const uint32_t> targets,
              std::span<const double> bounds, PathCell *out);

  private:
    /** Slots in the bucket queue's ring (see file comment). */
    static constexpr uint32_t kBuckets = 64;

    /** Queue entry: (distance, node). */
    using Entry = std::pair<double, uint32_t>;

    void nextEpoch();
    void resetQueue();
    void push(double dist, uint32_t node);
    bool pop(Entry &out);

    const DecodingGraph *graph_ = nullptr;
    uint32_t n_ = 0;
    uint32_t epoch_ = 0;
    /** Tentative label of one node, valid only where stamp equals
     *  epoch_ (so a new query needs no O(V) clear); one 16-byte
     *  record so a relaxation touches one cache line. */
    struct Label
    {
        double dist;
        uint32_t stamp;
        uint16_t hops;
        uint8_t obs;
    };
    std::vector<Label> labels_;
    // Stamped target membership: slot into `out` per detector.
    std::vector<uint32_t> targetStamp_;
    std::vector<uint32_t> targetSlot_;
    // Target slots by descending bound: the stop test reads the
    // first unsettled one.
    std::vector<uint32_t> byBound_;
    // Bucket queue. ring_[key % kBuckets] holds the entries of one
    // key; the current key's slot is sorted descending (its minimum
    // at the back) and late arrivals at that key go to lateHeap_.
    std::vector<std::vector<Entry>> ring_;
    std::vector<Entry> lateHeap_;
    double invWidth_ = 0.0;
    uint64_t curKey_ = 0;
    size_t pending_ = 0; //!< Entries in slots other than curKey_'s.
};

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_ORACLE_HPP
