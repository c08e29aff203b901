#include "qec/graph/path_table.hpp"

#include <functional>
#include <queue>
#include <string>
#include <utility>

#include "qec/dem/dem.hpp"

namespace qec
{

namespace
{

void
checkObservables(const DecodingGraph &graph)
{
    if (graph.numObservables() > 8) {
        throw DemError(std::to_string(graph.numObservables()) +
                       " observables: PathTable packs obs masks "
                       "into 8 bits");
    }
}

/** Full search from the seeded entries of `labels` (every other
 *  entry unreachable) over a binary heap; leaves every node's final
 *  label (header: one labelling rule). */
void
settleAll(const DecodingGraph &graph, std::vector<PathLabel> &labels)
{
    using Entry = std::pair<uint32_t, uint32_t>; // (dist, node)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap;
    for (uint32_t v = 0; v < labels.size(); ++v) {
        if (labels[v].dist() != kNoPath) {
            heap.push({labels[v].dist(), v});
        }
    }
    while (!heap.empty()) {
        const auto [du, u] = heap.top();
        heap.pop();
        if (du != labels[u].dist()) {
            continue; // Stale: u was queued again closer.
        }
        relaxPairEdges(
            graph, u, labels[u],
            [&](uint32_t v) -> PathLabel & { return labels[v]; },
            [&](uint32_t v) { heap.push({labels[v].dist(), v}); });
    }
}

/** Labels of a search from one source. */
void
settleFrom(const DecodingGraph &graph, uint32_t src,
           std::vector<PathLabel> &labels)
{
    labels.assign(graph.numDetectors(), PathLabel{});
    labels[src] = PathLabel::of(0, 0, 0);
    settleAll(graph, labels);
}

} // namespace

PathTable::PathTable(const DecodingGraph &graph)
    : graph_(&graph), n(graph.numDetectors()),
      cells(static_cast<size_t>(n) * n),
      boundary(n)
{
    checkObservables(graph);
    std::vector<PathLabel> labels;
    for (uint32_t src = 0; src < n; ++src) {
        settleFrom(graph, src, labels);
        for (uint32_t v = 0; v < n; ++v) {
            cells[index(src, v)] = labels[v].cell();
        }
    }
    buildBoundary();
}

PathTable::PathTable(const DecodingGraph &graph, DeferPairs)
    : graph_(&graph), n(graph.numDetectors()),
      boundary(n)
{
    checkObservables(graph);
    buildBoundary();
    buildLandmarks();
}

void
PathTable::buildBoundary()
{
    // Multi-source search seeded by every boundary edge.
    const DecodingGraph &graph = *graph_;
    std::vector<PathLabel> labels(n);
    for (uint32_t det = 0; det < n; ++det) {
        const int eid = graph.boundaryEdge(det);
        if (eid >= 0) {
            labels[det] = PathLabel::of(
                static_cast<uint32_t>(graph.edgeWeight(eid)), 1,
                static_cast<uint8_t>(graph.edgeObsMask(eid)));
        }
    }
    settleAll(graph, labels);
    for (uint32_t v = 0; v < n; ++v) {
        boundary[v] = labels[v].cell();
    }
}

void
PathTable::buildLandmarks()
{
    numLandmarks_ = static_cast<int>(
        std::min<uint32_t>(n, static_cast<uint32_t>(kLandmarks)));
    landmarks_.assign(static_cast<size_t>(n) * numLandmarks_, kNoPath);
    if (numLandmarks_ == 0) {
        return;
    }
    // Farthest point from `far`: the largest value, kNoPath
    // (unreachable) included, lowest index on ties.
    const auto argmax = [&](const auto &far) {
        uint32_t best = 0;
        for (uint32_t v = 1; v < n; ++v) {
            if (far(v) > far(best)) {
                best = v;
            }
        }
        return best;
    };
    std::vector<PathLabel> labels;
    settleFrom(*graph_, 0, labels);
    uint32_t next =
        argmax([&](uint32_t v) { return labels[v].dist(); });
    std::vector<uint32_t> nearest(n, kNoPath);
    for (int l = 0; l < numLandmarks_; ++l) {
        settleFrom(*graph_, next, labels);
        for (uint32_t v = 0; v < n; ++v) {
            landmarks_[static_cast<size_t>(v) * numLandmarks_ + l] =
                labels[v].dist();
            nearest[v] = std::min(nearest[v], labels[v].dist());
        }
        next = argmax([&](uint32_t v) { return nearest[v]; });
    }
}

size_t
PathTable::storageBytes() const
{
    return (cells.size() + boundary.size()) * sizeof(PathCell) +
           landmarks_.size() * sizeof(uint32_t);
}

} // namespace qec
