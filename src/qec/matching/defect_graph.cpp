#include "qec/matching/defect_graph.hpp"

#include <limits>

#include "qec/util/assert.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
buildDefectGraphInto(std::span<const uint32_t> defects,
                     const PathTable &paths, DistanceOracle &oracle,
                     DefectGraph &out)
{
    rt::assignRange(out.defects, defects.begin(),
                    defects.end());
    const int n = static_cast<int>(defects.size());
    const size_t s = defects.size();
    rt::resizeTo(out.cells, s * s);
    rt::resizeTo(out.boundaryCells, s);
    rt::assignFill(out.noBounds, s,
                   std::numeric_limits<Weight>::max());
    out.problem.n = n;
    rt::assignFill(out.problem.pairWeight, s * s, kNoEdge);
    rt::assignFill(out.problem.boundaryWeight, s, kNoEdge);
    for (int i = 0; i < n; ++i) {
        // Row i holds the partners j > i only.
        const size_t rest = s - i - 1;
        PathCell *row = out.cells.data() + i * s;
        readPairCells(paths, oracle, defects[i], defects.last(rest),
                      std::span(out.noBounds).first(rest),
                      row + i + 1);
        out.boundaryCells[i] = paths.boundaryCell(defects[i]);
        const uint32_t db = out.boundaryCells[i].dist;
        if (db != kNoPath) {
            out.problem.boundaryWeight[i] = db;
        }
        for (int j = i + 1; j < n; ++j) {
            if (row[j].dist != kNoPath) {
                out.problem.setPair(i, j, row[j].dist);
            }
        }
    }
}

uint64_t
DefectGraph::solutionObs(const MatchingSolution &solution) const
{
    QEC_ASSERT(solution.mate.size() == defects.size(),
               "solution size mismatch");
    uint64_t obs = 0;
    for (size_t i = 0; i < defects.size(); ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            obs ^= boundaryCells[i].obs;
        } else if (m > static_cast<int>(i)) {
            obs ^= cell(static_cast<int>(i), m).obs;
        }
    }
    return obs;
}

void
DefectGraph::chainLengthsInto(const MatchingSolution &solution,
                              std::vector<int> &out) const
{
    out.clear();
    for (size_t i = 0; i < defects.size(); ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            rt::pushBack(out, int{boundaryCells[i].hops});
        } else if (m > static_cast<int>(i)) {
            rt::pushBack(out,
                         int{cell(static_cast<int>(i), m).hops});
        }
    }
}

} // namespace qec
