/**
 * @file
 * Construction of matching problems from syndromes.
 *
 * A DefectGraph is the complete graph over the flipped detectors of
 * one syndrome, with shortest-path weights from the PathTable (the
 * "MWPM graph" of §4.2.3). It also knows how to turn a matching
 * solution back into physics: the observable flips implied by the
 * matched paths and the error-chain lengths (Fig. 5).
 *
 * The hot decode path rebuilds one workspace-owned DefectGraph in
 * place. The build reads each defect's row of pair cells through
 * readPairCells (distance_oracle.hpp: table rows on a dense table,
 * unbounded oracle growth on a DeferPairs one) into the graph's own
 * cell block, and the problem matrix and the solution read-back
 * then touch only that block. Nothing in it outlives the next
 * build.
 */

#ifndef QEC_MATCHING_DEFECT_GRAPH_HPP
#define QEC_MATCHING_DEFECT_GRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Matching view of one syndrome. */
struct DefectGraph
{
    /** Flipped detector indices (sorted). */
    std::vector<uint32_t> defects;
    /** Complete-graph matching instance over the defects. */
    MatchingProblem problem;
    /** Row-major S×S pair cells; only entries (i, j) with i < j are
     *  read. */
    std::vector<PathCell> cells;
    /** Boundary cell of each defect. */
    std::vector<PathCell> boundaryCells;
    /** Unlimited oracle bounds, one per defect. */
    std::vector<Weight> noBounds;

    /** Cell of the pair (i, j), i < j. */
    const PathCell &cell(int i, int j) const
    {
        return cells[static_cast<size_t>(i) * defects.size() + j];
    }

    /** XOR of observable masks along all matched paths. */
    uint64_t solutionObs(const MatchingSolution &solution) const;

    /** Error-chain length (hops) of each matched pair/boundary,
     *  into a caller-owned buffer (capacity reused). */
    void chainLengthsInto(const MatchingSolution &sol,
                          std::vector<int> &out) const;
};

/**
 * Rebuild `out` in place for `defects` (sorted): reads every pair
 * cell of `paths` through readPairCells (growing rows with `oracle`
 * on a DeferPairs table) and fills the problem matrix from them.
 */
void buildDefectGraphInto(std::span<const uint32_t> defects,
                          const PathTable &paths,
                          DistanceOracle &oracle, DefectGraph &out);

} // namespace qec

#endif // QEC_MATCHING_DEFECT_GRAPH_HPP
