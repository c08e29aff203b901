/**
 * @file
 * The decoding graph (§2.2 of the paper).
 *
 * Nodes are detectors (plus one virtual boundary); edges are graphlike
 * error mechanisms weighted by w = log((1-p)/p), so that a
 * minimum-weight matching corresponds to a maximum-probability error
 * hypothesis. fromDem rounds each weight once to an integer count of
 * kWeightUnit (weight.hpp); that integer is the only weight any
 * decoder reads.
 *
 * Data layout (docs/api.md "Data layout"): adjacency is stored as a
 * CSR — one offsets array plus one flat edge-id array — instead of a
 * vector-of-vectors, and the edge fields consulted by the decode
 * inner loops (weight, observable mask, endpoints) are additionally
 * split into SoA arrays. The pair-edge CSR's 16-byte records carry
 * each edge's weight and observable bits next to the neighbour, so a
 * shortest-path relaxation reads one record and chases no edge id;
 * every search and oracle shares this one copy.
 */

#ifndef QEC_GRAPH_DECODING_GRAPH_HPP
#define QEC_GRAPH_DECODING_GRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/dem/decompose.hpp"
#include "qec/graph/weight.hpp"
#include "qec/surface/circuit_gen.hpp"

namespace qec
{

/** One weighted edge of the decoding graph. */
struct GraphEdge
{
    uint32_t id = 0;        //!< Position in edges().
    uint32_t u = 0;         //!< First detector.
    uint32_t v = kBoundary; //!< Second detector or kBoundary.
    double prob = 0.0;      //!< Combined mechanism probability.
    Weight weight = 0;      //!< probToWeight(prob).
    uint64_t obsMask = 0;   //!< Observables crossed by this edge.
};

/** One entry of the pair-edge CSR: in-graph neighbor, edge id and
 *  the two edge fields a shortest-path relaxation reads. */
struct PairHalfEdge
{
    uint32_t neighbor = 0; //!< The detector across the edge.
    uint32_t edgeId = 0;   //!< Position in edges().
    uint32_t weight = 0;   //!< edgeWeight(edgeId).
    uint8_t obs = 0;       //!< Low 8 bits of edgeObsMask(edgeId).
};

static_assert(sizeof(PairHalfEdge) == 16,
              "four pair-edge records per cache line");

/** Weighted detector graph with a virtual boundary node. */
class DecodingGraph
{
  public:
    /**
     * Build from a graphlike DEM. Parallel edges with different
     * observable masks are merged into the most probable variant
     * (with XOR-combined probability); the number of such conflicts
     * is reported by obsConflicts().
     *
     * Throws DemError when the DEM has 2^24 or more detectors (a
     * PathLabel packs hop counts into 24 bits), when a merged edge
     * probability lies outside (0, 0.5) or is NaN, or when the
     * longest possible path (V edges of the largest weight) would
     * not fit in a 32-bit PathCell distance.
     *
     * @param coords optional space-time coordinates per detector
     *               (from MemoryExperiment), used by predecoder
     *               heuristics and debug output.
     */
    static DecodingGraph fromDem(const GraphlikeDem &dem,
                                 std::vector<DetectorCoord> coords = {});

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    const std::vector<GraphEdge> &edges() const { return edges_; }

    /** Ids of edges incident to a detector (boundary edges included),
     *  in construction order — row det of the adjacency CSR. */
    std::span<const uint32_t>
    adjacentEdges(uint32_t det) const
    {
        return {adjEdgeIds_.data() + adjOffsets_[det],
                adjEdgeIds_.data() + adjOffsets_[det + 1]};
    }

    /**
     * Detector-detector half-edges of a detector (boundary edges
     * excluded), in the same relative order as adjacentEdges(). The
     * shortest-path searches and the hot subgraph construction walk
     * these 16-byte records instead of chasing edge ids into the
     * 40-byte GraphEdge AoS.
     */
    std::span<const PairHalfEdge>
    pairNeighbors(uint32_t det) const
    {
        return {pairHalfEdges_.data() + pairOffsets_[det],
                pairHalfEdges_.data() + pairOffsets_[det + 1]};
    }

    /** Largest edge weight, boundary edges included (0 when the
     *  graph has no edges); sizes the oracle's bucket ring. */
    Weight maxEdgeWeight() const { return maxEdgeWeight_; }

    // --- SoA hot fields, copied from the GraphEdge AoS at
    // construction.
    Weight edgeWeight(uint32_t eid) const { return edgeWeight_[eid]; }
    uint64_t edgeObsMask(uint32_t eid) const { return edgeObs_[eid]; }
    uint32_t edgeU(uint32_t eid) const { return edgeEndU_[eid]; }
    /** Second endpoint, or kBoundary. */
    uint32_t edgeV(uint32_t eid) const { return edgeEndV_[eid]; }

    /** Edge id between two detectors, or -1 if not adjacent. */
    int edgeBetween(uint32_t a, uint32_t b) const;

    /** Boundary edge id of a detector, or -1 if none. */
    int boundaryEdge(uint32_t det) const { return boundaryEdgeOf[det]; }

    /** Number of parallel-edge observable conflicts during merge. */
    uint32_t obsConflicts() const { return obsConflicts_; }

    /** Space-time coordinate of a detector (empty vector if unset). */
    const std::vector<DetectorCoord> &coords() const { return coords_; }

    /** Mean number of pair-edges per detector (graph sparsity). */
    double averageDegree() const;

  private:
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t obsConflicts_ = 0;
    std::vector<GraphEdge> edges_;
    // Adjacency CSR: row det spans
    // [adjOffsets_[det], adjOffsets_[det+1]) of adjEdgeIds_.
    std::vector<uint32_t> adjOffsets_;
    std::vector<uint32_t> adjEdgeIds_;
    // Pair-edge CSR (boundary edges filtered out at construction).
    std::vector<uint32_t> pairOffsets_;
    std::vector<PairHalfEdge> pairHalfEdges_;
    Weight maxEdgeWeight_ = 0;
    // SoA hot fields, parallel to edges_.
    std::vector<uint32_t> edgeWeight_;
    std::vector<uint64_t> edgeObs_;
    std::vector<uint32_t> edgeEndU_;
    std::vector<uint32_t> edgeEndV_;
    std::vector<int> boundaryEdgeOf;
    std::vector<DetectorCoord> coords_;
};

/**
 * Matching weight of an error probability: log((1-p)/p) rounded to
 * the nearest kWeightUnit, at least one unit. Throws DemError unless
 * 0 < p < 0.5.
 */
Weight probToWeight(double prob);

} // namespace qec

#endif // QEC_GRAPH_DECODING_GRAPH_HPP
