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
 * lookup instead of striding three separate n² arrays, and the
 * DistanceView gather streams all three fields in a single pass.
 * Every distance is float: the Dijkstra accumulates in double and
 * narrows once on store. (distBoundary was historically double while
 * distMat was float; they are unified to float so the gathered
 * DistanceView has one element type — a 24-bit mantissa is orders of
 * magnitude below the precision of any physical error prior.)
 *
 * Deferred mode: the pair half of the table is O(V²) cells plus V
 * per-source Dijkstras, which is what caps setup at d≈13 (≈54 MB at
 * d=17, ≈187 MB at d=21 — see bench/table8_storage.cpp). A table
 * constructed with PathTable::DeferPairs builds only O(V) columns
 * and remembers the graph: the boundary column plus kLandmarks
 * landmark distance columns (float, node-major). Pair distances are
 * then computed on demand by DistanceOracle / the sparse matcher
 * (both reproduce this file's Dijkstra bit-for-bit), and the
 * pair-cell accessors assert. pairsAvailable() tells the two modes
 * apart; storageBytes() reports either mode's footprint.
 *
 * Landmarks: by the triangle inequality d(i, j) >= |dL(i) - dL(j)|
 * for any detector L, so the landmark columns give every pair a
 * lower bound without a search; the sparse matcher uses it to drop
 * targets it can prove prunable (sparse_matcher.hpp states the
 * bound under float narrowing). They are picked by deterministic
 * farthest-point selection: the first is the detector farthest from
 * detector 0, each next one the detector farthest from all chosen
 * so far (unreachable counts as farthest, ties go to the lowest
 * index), so landmarks land on the corners of the space-time volume
 * and one lands in every disconnected component the budget reaches.
 */

#ifndef QEC_GRAPH_PATH_TABLE_HPP
#define QEC_GRAPH_PATH_TABLE_HPP

#include <cstdint>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/util/assert.hpp"

namespace qec
{

/** One interleaved entry of the all-pairs table. */
struct PathCell
{
    float dist = 0.0f;  //!< Shortest-path weight.
    uint8_t obs = 0;    //!< XOR of obs masks along the path.
    uint8_t hops = 255; //!< Edge count (255 = saturated).
};

static_assert(sizeof(PathCell) == 8,
              "PathCell must stay one half cache line per 8 pairs");

/** Precomputed distance / observable-parity / hop tables. */
class PathTable
{
  public:
    /** Tag selecting deferred construction (see file comment). */
    struct DeferPairs
    {
    };

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

    /** Shortest-path weight between two detectors. */
    float dist(uint32_t a, uint32_t b) const
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
    float distToBoundary(uint32_t a) const
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

    /** True if b is unreachable from a without the boundary. */
    bool unreachable(uint32_t a, uint32_t b) const;

    uint32_t numDetectors() const { return n; }

    /** Landmark columns a DeferPairs table builds (fewer when the
     *  graph has fewer detectors; a dense table builds none). */
    static constexpr int kLandmarks = 8;

    int numLandmarks() const { return numLandmarks_; }

    /** The numLandmarks() landmark distances of detector a
     *  (infinite where a landmark is unreachable). */
    const float *landmarkRow(uint32_t a) const
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

    void buildBoundary(const DecodingGraph &graph);
    void buildPairs(const DecodingGraph &graph);
    void buildLandmarks(const DecodingGraph &graph);

    const DecodingGraph *graph_ = nullptr;
    uint32_t n = 0;
    int numLandmarks_ = 0;
    std::vector<PathCell> cells;    //!< n x n interleaved pairs.
    std::vector<PathCell> boundary; //!< Per-detector boundary column.
    std::vector<float> landmarks_;  //!< n x numLandmarks_ distances.
};

} // namespace qec

#endif // QEC_GRAPH_PATH_TABLE_HPP
