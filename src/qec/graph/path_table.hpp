/**
 * @file
 * All-pairs shortest paths over the decoding graph.
 *
 * The matchers (MWPM, Astrea, Astrea-G) operate on a complete graph
 * over the flipped detectors whose edge weights are shortest-path
 * distances in the decoding graph; Promatch's Step 3 consults the
 * same table (the paper's on-chip "Path table", §4.2.2/Table 8).
 *
 * Boundary distances are computed with a multi-source Dijkstra seeded
 * by every boundary edge; pair distances never route through the
 * boundary (matching two defects "via the boundary" is represented as
 * two separate boundary matches instead).
 *
 * Data layout (docs/api.md "Data layout"): the three per-pair fields
 * (distance, path observable parity, hop count) are interleaved into
 * one 8-byte PathCell so a decode touches one cache line per pair
 * lookup instead of striding three separate n² arrays, and a row
 * read (readPairCells, distance_oracle.hpp) copies all three
 * fields in a single pass.
 * Distances are the integer weights of weight.hpp, stored in 32 bits
 * (kNoPath = unreachable); fromDem guarantees every path fits.
 *
 * One labelling rule. Every search in the repo — this table's pair
 * rows, boundary column and landmark columns, and DistanceOracle —
 * relaxes with relaxPairEdges(): a node's label (dist, hops, obs)
 * improves only to a lexicographically smaller one, and each node
 * settles once. A PathLabel packs the three fields into one 64-bit
 * key (dist high, hops in 24 bits, obs in the low byte), so the rule
 * is one integer compare, and extending a label over a pair-edge
 * record is one shift, one add and one xor. Because every weight is
 * at least one unit, every predecessor that can set a node's final
 * label has a strictly smaller distance and is settled before the
 * node is, so the final
 * label is the lexicographic minimum over its neighbours' final
 * labels: it depends on the graph alone, not on the order in which
 * nodes of equal distance are popped. This table pops a binary heap
 * and the oracle a bucket ring; the two orders differ among equal
 * distances, so the suites that compare their cells bit for bit
 * would catch a rule that depended on pop order.
 *
 * Deferred mode: the pair half of the table is O(V²) cells plus V
 * per-source Dijkstras, which is what caps setup at d≈13 (≈54 MB at
 * d=17, ≈187 MB at d=21 — see bench/table8_storage.cpp). A table
 * constructed with PathTable::DeferPairs builds only O(V) columns
 * and remembers the graph: the boundary column plus kLandmarks
 * landmark distance columns (node-major). Pair distances are then
 * computed on demand by a DistanceOracle, and the pair-cell
 * accessors assert. pairsAvailable() tells the two modes apart; on
 * the decode path only readPairCells (distance_oracle.hpp) asks it.
 * storageBytes() reports either mode's footprint.
 *
 * Landmarks: by the triangle inequality d(i, j) >= |dL(i) - dL(j)|
 * for any detector L, so the landmark columns give every pair an
 * exact lower bound without a search; the sparse matcher uses it to
 * drop targets it can prove prunable. They are picked by
 * deterministic farthest-point selection: the first is the detector
 * farthest from detector 0, each next one the detector farthest from
 * all chosen so far (unreachable counts as farthest, ties go to the
 * lowest index), so landmarks land on the corners of the space-time
 * volume and one lands in every disconnected component the budget
 * reaches.
 */

#ifndef QEC_GRAPH_PATH_TABLE_HPP
#define QEC_GRAPH_PATH_TABLE_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/util/assert.hpp"

namespace qec
{

/** One interleaved entry of the all-pairs table; a default cell is
 *  the cell of a pair no path connects. */
struct PathCell
{
    uint32_t dist = kNoPath; //!< Shortest-path weight, or kNoPath.
    uint8_t obs = 0;         //!< XOR of obs masks along the path.
    uint8_t hops = 255;      //!< Edge count (255 = saturated).
};

static_assert(sizeof(PathCell) == 8,
              "PathCell must stay one half cache line per 8 pairs");

/**
 * Tentative label of one node in a shortest-path search, packed into
 * one integer key: dist in bits 32..63, hops in bits 8..31, obs in
 * bits 0..7. Comparing keys is the lexicographic (dist, hops, obs)
 * rule; fromDem keeps hops below 2^24 and dist below kNoPath on
 * every path, so no field carries into the next. A default label is
 * unreachable.
 */
struct PathLabel
{
    uint64_t key = uint64_t{kNoPath} << 32;

    static constexpr PathLabel
    of(uint32_t dist, uint32_t hops, uint8_t obs)
    {
        return {uint64_t{dist} << 32 | uint64_t{hops} << 8 | obs};
    }

    uint32_t dist() const { return static_cast<uint32_t>(key >> 32); }
    uint32_t hops() const
    {
        return static_cast<uint32_t>(key >> 8) & 0xFFFFFF;
    }
    uint8_t obs() const { return static_cast<uint8_t>(key); }

    /** The one tie-break rule (file comment). */
    bool operator<(const PathLabel &other) const
    {
        return key < other.key;
    }

    PathCell
    cell() const
    {
        return {dist(), obs(),
                static_cast<uint8_t>(std::min<uint32_t>(hops(), 255))};
    }
};

/**
 * Relax the pair edges of the settled node u (label lu): each
 * neighbour v's label, reached through labelOf(v), takes the
 * extension of lu when its key is smaller, and queue(v) runs when
 * v's distance dropped (an equal-distance improvement keeps v's
 * queue entry). Boundary edges are never intermediate hops. The
 * shared rule of every search (file comment).
 */
template <class LabelOf, class Queue>
inline void
relaxPairEdges(const DecodingGraph &graph, uint32_t u, PathLabel lu,
               LabelOf &&labelOf, Queue &&queue)
{
    // lu one hop further; each edge adds its weight and flips its
    // observable bits.
    const uint64_t oneHop = lu.key + (uint64_t{1} << 8);
    for (const PairHalfEdge &half : graph.pairNeighbors(u)) {
        const PathLabel next{
            (oneHop + (uint64_t{half.weight} << 32)) ^ half.obs};
        PathLabel &lv = labelOf(half.neighbor);
        if (next < lv) {
            const bool closer = next.dist() < lv.dist();
            lv = next;
            if (closer) {
                queue(half.neighbor);
            }
        }
    }
}

/** Precomputed distance / observable-parity / hop tables. */
class PathTable
{
  public:
    /** Tag selecting deferred construction (see file comment). */
    struct DeferPairs
    {
    };

    /** Dense table: every pair cell plus the boundary column.
     *  Throws DemError when the graph has more than 8 observables
     *  (a PathCell packs obs into 8 bits); so does DeferPairs. */
    explicit PathTable(const DecodingGraph &graph);

    /** Deferred table: boundary and landmark columns only, O(V)
     *  memory and kLandmarks + 2 Dijkstras. Pair-cell accessors
     *  assert until pairsAvailable(). */
    PathTable(const DecodingGraph &graph, DeferPairs);

    /** False when constructed with DeferPairs: the O(V²) pair half
     *  was skipped and consumers must compute pair distances via a
     *  DistanceOracle instead. */
    bool pairsAvailable() const { return !cells.empty(); }

    /** The decoding graph this table was built over. */
    const DecodingGraph &graph() const { return *graph_; }

    /** Shortest-path weight between two detectors (kNoPath when
     *  unreachable without the boundary). */
    uint32_t dist(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].dist;
    }

    /** XOR of observable masks along the shortest a-b path. */
    uint64_t pathObs(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].obs;
    }

    /** Number of edges along the shortest a-b path (255 = saturated). */
    int pathHops(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].hops;
    }

    /** The full interleaved cell of a detector pair. */
    const PathCell &cell(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)];
    }

    /** One row of the interleaved table (all pairs of detector a). */
    const PathCell *row(uint32_t a) const
    {
        return cells.data() + index(a, 0);
    }

    /** Shortest-path weight from a detector to the boundary. */
    uint32_t distToBoundary(uint32_t a) const
    {
        return boundary[a].dist;
    }

    /** Observable parity of the best path to the boundary. */
    uint64_t boundaryObs(uint32_t a) const { return boundary[a].obs; }

    /** Hop count of the best path to the boundary. */
    int boundaryHops(uint32_t a) const { return boundary[a].hops; }

    /** The full interleaved boundary cell of a detector. */
    const PathCell &boundaryCell(uint32_t a) const
    {
        return boundary[a];
    }

    uint32_t numDetectors() const { return n; }

    /** Landmark columns a DeferPairs table builds (fewer when the
     *  graph has fewer detectors; a dense table builds none). */
    static constexpr int kLandmarks = 8;

    int numLandmarks() const { return numLandmarks_; }

    /** The numLandmarks() landmark distances of detector a
     *  (kNoPath where a landmark is unreachable). */
    const uint32_t *landmarkRow(uint32_t a) const
    {
        return landmarks_.data() +
               static_cast<size_t>(a) * numLandmarks_;
    }

    /** Bytes held by the table's cells and columns. */
    size_t storageBytes() const;

  private:
    size_t index(uint32_t a, uint32_t b) const
    {
        QEC_ASSERT(pairsAvailable(),
                   "pair cells were deferred (DeferPairs); use a "
                   "DistanceOracle");
        return static_cast<size_t>(a) * n + b;
    }

    void buildBoundary();
    void buildLandmarks();

    const DecodingGraph *graph_ = nullptr;
    uint32_t n = 0;
    int numLandmarks_ = 0;
    std::vector<PathCell> cells;    //!< n x n interleaved pairs.
    std::vector<PathCell> boundary; //!< Per-detector boundary column.
    std::vector<uint32_t> landmarks_; //!< n x numLandmarks_ dists.
};

} // namespace qec

#endif // QEC_GRAPH_PATH_TABLE_HPP
