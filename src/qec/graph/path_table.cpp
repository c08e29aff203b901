#include "qec/graph/path_table.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();

/** Dijkstra state entry: (distance, node). */
using HeapEntry = std::pair<double, uint32_t>;

/** Shared relax loop of both build phases (and the reference
 *  semantics DistanceOracle mirrors): boundary edges never serve as
 *  intermediate hops, distances accumulate in double, and a node's
 *  labels are final once popped. */
struct DijkstraScratch
{
    std::vector<double> dist;
    std::vector<uint8_t> obs;
    std::vector<uint16_t> hops;
    std::vector<bool> done;

    explicit DijkstraScratch(uint32_t n)
        : dist(n), obs(n), hops(n), done(n)
    {
    }

    void reset()
    {
        std::fill(dist.begin(), dist.end(),
                  std::numeric_limits<double>::infinity());
        std::fill(obs.begin(), obs.end(), 0);
        std::fill(hops.begin(), hops.end(), 0);
        std::fill(done.begin(), done.end(), false);
    }

    void relaxAll(const DecodingGraph &graph,
                  std::priority_queue<HeapEntry,
                                      std::vector<HeapEntry>,
                                      std::greater<>> &heap)
    {
        while (!heap.empty()) {
            const auto [du, u] = heap.top();
            heap.pop();
            if (done[u]) {
                continue;
            }
            done[u] = true;
            for (uint32_t eid : graph.adjacentEdges(u)) {
                const GraphEdge &edge = graph.edges()[eid];
                if (edge.v == kBoundary) {
                    continue; // Boundary is never an intermediate hop.
                }
                const uint32_t w = (edge.u == u) ? edge.v : edge.u;
                const double dw = du + edge.weight;
                if (dw < dist[w]) {
                    dist[w] = dw;
                    obs[w] = obs[u] ^
                             static_cast<uint8_t>(edge.obsMask);
                    hops[w] = static_cast<uint16_t>(hops[u] + 1);
                    heap.push({dw, w});
                }
            }
        }
    }
};

} // namespace

PathTable::PathTable(const DecodingGraph &graph)
    : graph_(&graph), n(graph.numDetectors()),
      cells(static_cast<size_t>(n) * n, PathCell{kInf, 0, 255}),
      boundary(n, PathCell{kInf, 0, 255})
{
    QEC_ASSERT(graph.numObservables() <= 8,
               "PathTable packs obs masks into 8 bits");
    buildPairs(graph);
    buildBoundary(graph);
}

PathTable::PathTable(const DecodingGraph &graph, DeferPairs)
    : graph_(&graph), n(graph.numDetectors()),
      boundary(n, PathCell{kInf, 0, 255})
{
    QEC_ASSERT(graph.numObservables() <= 8,
               "PathTable packs obs masks into 8 bits");
    buildBoundary(graph);
    buildLandmarks(graph);
}

void
PathTable::buildPairs(const DecodingGraph &graph)
{
    DijkstraScratch s(n);
    // Per-source Dijkstra for the pair tables.
    for (uint32_t src = 0; src < n; ++src) {
        s.reset();
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<>>
            heap;
        s.dist[src] = 0.0;
        heap.push({0.0, src});
        s.relaxAll(graph, heap);
        for (uint32_t v = 0; v < n; ++v) {
            PathCell &cell = cells[index(src, v)];
            cell.dist = static_cast<float>(s.dist[v]);
            cell.obs = s.obs[v];
            cell.hops = static_cast<uint8_t>(
                std::min<uint16_t>(s.hops[v], 255));
        }
    }
}

void
PathTable::buildBoundary(const DecodingGraph &graph)
{
    // Multi-source Dijkstra seeded by every boundary edge.
    DijkstraScratch s(n);
    s.reset();
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>>
        heap;
    for (uint32_t det = 0; det < n; ++det) {
        const int eid = graph.boundaryEdge(det);
        if (eid < 0) {
            continue;
        }
        const GraphEdge &edge = graph.edges()[eid];
        if (edge.weight < s.dist[det]) {
            s.dist[det] = edge.weight;
            s.obs[det] = static_cast<uint8_t>(edge.obsMask);
            s.hops[det] = 1;
            heap.push({edge.weight, det});
        }
    }
    s.relaxAll(graph, heap);
    for (uint32_t v = 0; v < n; ++v) {
        boundary[v].dist = static_cast<float>(s.dist[v]);
        boundary[v].obs = s.obs[v];
        boundary[v].hops = static_cast<uint8_t>(
            std::min<uint16_t>(s.hops[v], 255));
    }
}

void
PathTable::buildLandmarks(const DecodingGraph &graph)
{
    numLandmarks_ = static_cast<int>(
        std::min<uint32_t>(n, static_cast<uint32_t>(kLandmarks)));
    landmarks_.assign(static_cast<size_t>(n) * numLandmarks_, kInf);
    if (numLandmarks_ == 0) {
        return;
    }
    DijkstraScratch s(n);
    const auto runFrom = [&](uint32_t src) {
        s.reset();
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<>>
            heap;
        s.dist[src] = 0.0;
        heap.push({0.0, src});
        s.relaxAll(graph, heap);
    };
    // Farthest point from `far`: the largest value, infinity
    // included, lowest index on ties.
    const auto argmax = [&](const std::vector<double> &far) {
        uint32_t best = 0;
        for (uint32_t v = 1; v < n; ++v) {
            if (far[v] > far[best]) {
                best = v;
            }
        }
        return best;
    };
    runFrom(0);
    uint32_t next = argmax(s.dist);
    std::vector<double> nearest(
        n, std::numeric_limits<double>::infinity());
    for (int l = 0; l < numLandmarks_; ++l) {
        runFrom(next);
        for (uint32_t v = 0; v < n; ++v) {
            landmarks_[static_cast<size_t>(v) * numLandmarks_ + l] =
                static_cast<float>(s.dist[v]);
            nearest[v] = std::min(nearest[v], s.dist[v]);
        }
        next = argmax(nearest);
    }
}

size_t
PathTable::storageBytes() const
{
    return (cells.size() + boundary.size()) * sizeof(PathCell) +
           landmarks_.size() * sizeof(float);
}

bool
PathTable::unreachable(uint32_t a, uint32_t b) const
{
    return cells[index(a, b)].dist == kInf;
}

} // namespace qec
