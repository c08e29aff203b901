#include "qec/matching/blossom.hpp"

#include <algorithm>
#include <limits>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
BlossomSolver::beginDense(int n)
{
    n_ = n;
    nx_ = n;
    wMax_ = 0;
    const int need = 2 * n + 1;
    if (need > cap_) {
        cap_ = need;
        rt::resizeTo(gu_, static_cast<size_t>(cap_) * cap_);
        rt::resizeTo(gv_, static_cast<size_t>(cap_) * cap_);
        rt::resizeTo(gw_, static_cast<size_t>(cap_) * cap_);
        rt::resizeTo(lab_, cap_);
        rt::resizeTo(match_, cap_);
        rt::resizeTo(slack_, cap_);
        rt::resizeTo(st_, cap_);
        rt::resizeTo(pa_, cap_);
        rt::resizeTo(S_, cap_);
        rt::resizeTo(vis_, cap_);
        rt::resizeTo(flower_, cap_);
    }
    if (n + 1 > fcap_) {
        fcap_ = n + 1;
        rt::resizeTo(flowerFrom_,
                     static_cast<size_t>(cap_) * fcap_);
    }
    // Per-solve overwrite of everything the algorithm reads before
    // writing: the real-vertex edge region, the real flowerFrom
    // rows, and the linear per-vertex state. Blossom slots
    // ((n, 2n]) are fully initialized by addBlossom when created,
    // so stale entries there are never observed.
    for (int u = 1; u <= n; ++u) {
        for (int v = 1; v <= n; ++v) {
            gu(u, v) = u;
            gv(u, v) = v;
            gw(u, v) = 0;
        }
        for (int v = 0; v <= n; ++v) {
            flowerFrom(u, v) = (u == v) ? u : 0;
        }
    }
    for (int u = 0; u < cap_; ++u) {
        st_[u] = u <= n ? u : 0;
        match_[u] = 0;
    }
}

void
BlossomSolver::setEdge(int u, int v, long long w)
{
    // Doubling keeps every dual quantity integral.
    gw(u, v) = 2 * w;
    gw(v, u) = 2 * w;
    wMax_ = std::max(wMax_, 2 * w);
}

void
BlossomSolver::run()
{
    for (int u = 1; u <= n_; ++u) {
        lab_[u] = wMax_ / 2;
    }
    while (matchingRound()) {
    }
}

long long
BlossomSolver::eDelta(int u, int v)
{
    return lab_[gu(u, v)] + lab_[gv(u, v)] - gw(u, v);
}

void
BlossomSolver::updateSlack(int u, int x)
{
    if (!slack_[x] ||
        eDelta(gu(u, x), gv(u, x)) <
            eDelta(gu(slack_[x], x), gv(slack_[x], x))) {
        slack_[x] = u;
    }
}

void
BlossomSolver::setSlack(int x)
{
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
        if (gw(u, x) > 0 && st_[u] != x && S_[st_[u]] == 0) {
            updateSlack(u, x);
        }
    }
}

void
BlossomSolver::queuePush(int x)
{
    if (x <= n_) {
        rt::pushBack(queue_, x);
    } else {
        for (int i : flower_[x]) {
            queuePush(i);
        }
    }
}

void
BlossomSolver::setSt(int x, int b)
{
    st_[x] = b;
    if (x > n_) {
        for (int i : flower_[x]) {
            setSt(i, b);
        }
    }
}

int
BlossomSolver::getPr(int b, int xr)
{
    auto it =
        std::find(flower_[b].begin(), flower_[b].end(), xr);
    int pr = static_cast<int>(it - flower_[b].begin());
    if (pr % 2 == 1) {
        std::reverse(flower_[b].begin() + 1, flower_[b].end());
        return static_cast<int>(flower_[b].size()) - pr;
    }
    return pr;
}

void
BlossomSolver::setMatch(int u, int v)
{
    match_[u] = gv(u, v);
    if (u <= n_) {
        return;
    }
    const int xr = flowerFrom(u, gu(u, v));
    const int pr = getPr(u, xr);
    for (int i = 0; i < pr; ++i) {
        setMatch(flower_[u][i], flower_[u][i ^ 1]);
    }
    setMatch(xr, v);
    std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                flower_[u].end());
}

void
BlossomSolver::augment(int u, int v)
{
    while (true) {
        const int xnv = st_[match_[u]];
        setMatch(u, v);
        if (!xnv) {
            return;
        }
        setMatch(xnv, st_[pa_[xnv]]);
        u = st_[pa_[xnv]];
        v = xnv;
    }
}

int
BlossomSolver::getLca(int u, int v)
{
    for (++visitT_; u || v; std::swap(u, v)) {
        if (u == 0) {
            continue;
        }
        if (vis_[u] == visitT_) {
            return u;
        }
        vis_[u] = visitT_;
        u = st_[match_[u]];
        if (u) {
            u = st_[pa_[u]];
        }
    }
    return 0;
}

void
BlossomSolver::addBlossom(int u, int lca, int v)
{
    int b = n_ + 1;
    while (b <= nx_ && st_[b]) {
        ++b;
    }
    if (b > nx_) {
        ++nx_;
    }
    lab_[b] = 0;
    S_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    rt::pushBack(flower_[b], lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
        rt::pushBack(flower_[b], x);
        y = st_[match_[x]];
        rt::pushBack(flower_[b], y);
        queuePush(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
        rt::pushBack(flower_[b], x);
        y = st_[match_[x]];
        rt::pushBack(flower_[b], y);
        queuePush(y);
    }
    setSt(b, b);
    for (int x = 1; x <= nx_; ++x) {
        gw(b, x) = 0;
        gw(x, b) = 0;
    }
    for (int x = 1; x <= n_; ++x) {
        flowerFrom(b, x) = 0;
    }
    for (int xs : flower_[b]) {
        for (int x = 1; x <= nx_; ++x) {
            if (gw(b, x) == 0 ||
                eDelta(gu(xs, x), gv(xs, x)) <
                    eDelta(gu(b, x), gv(b, x))) {
                gu(b, x) = gu(xs, x);
                gv(b, x) = gv(xs, x);
                gw(b, x) = gw(xs, x);
                gu(x, b) = gu(x, xs);
                gv(x, b) = gv(x, xs);
                gw(x, b) = gw(x, xs);
            }
        }
        for (int x = 1; x <= n_; ++x) {
            if (flowerFrom(xs, x)) {
                flowerFrom(b, x) = xs;
            }
        }
    }
    setSlack(b);
}

void
BlossomSolver::expandBlossom(int b)
{
    for (int i : flower_[b]) {
        setSt(i, i);
    }
    const int xr = flowerFrom(b, gu(b, pa_[b]));
    const int pr = getPr(b, xr);
    for (int i = 0; i < pr; i += 2) {
        const int xs = flower_[b][i];
        const int xns = flower_[b][i + 1];
        pa_[xs] = gu(xns, xs);
        S_[xs] = 1;
        S_[xns] = 0;
        slack_[xs] = 0;
        setSlack(xns);
        queuePush(xns);
    }
    S_[xr] = 1;
    pa_[xr] = pa_[b];
    for (size_t i = pr + 1; i < flower_[b].size(); ++i) {
        const int xs = flower_[b][i];
        S_[xs] = -1;
        setSlack(xs);
    }
    st_[b] = 0;
}

bool
BlossomSolver::onFoundEdge(int eu, int ev)
{
    const int u = st_[eu];
    const int v = st_[ev];
    if (S_[v] == -1) {
        pa_[v] = eu;
        S_[v] = 1;
        const int nu = st_[match_[v]];
        slack_[v] = slack_[nu] = 0;
        S_[nu] = 0;
        queuePush(nu);
    } else if (S_[v] == 0) {
        const int lca = getLca(u, v);
        if (!lca) {
            augment(u, v);
            augment(v, u);
            return true;
        }
        addBlossom(u, lca, v);
    }
    return false;
}

bool
BlossomSolver::matchingRound()
{
    std::fill(S_.begin() + 1, S_.begin() + nx_ + 1, -1);
    std::fill(slack_.begin() + 1, slack_.begin() + nx_ + 1, 0);
    queue_.clear();
    queueHead_ = 0;
    for (int x = 1; x <= nx_; ++x) {
        if (st_[x] == x && !match_[x]) {
            pa_[x] = 0;
            S_[x] = 0;
            queuePush(x);
        }
    }
    if (queue_.empty()) {
        return false;
    }
    while (true) {
        while (queueHead_ < queue_.size()) {
            const int u = queue_[queueHead_++];
            if (S_[st_[u]] == 1) {
                continue;
            }
            for (int v = 1; v <= n_; ++v) {
                if (gw(u, v) > 0 && st_[u] != st_[v]) {
                    if (eDelta(gu(u, v), gv(u, v)) == 0) {
                        if (onFoundEdge(gu(u, v), gv(u, v))) {
                            return true;
                        }
                    } else {
                        updateSlack(u, st_[v]);
                    }
                }
            }
        }
        long long d = std::numeric_limits<long long>::max();
        for (int b = n_ + 1; b <= nx_; ++b) {
            if (st_[b] == b && S_[b] == 1) {
                d = std::min(d, lab_[b] / 2);
            }
        }
        for (int x = 1; x <= nx_; ++x) {
            if (st_[x] == x && slack_[x]) {
                const long long delta =
                    eDelta(gu(slack_[x], x), gv(slack_[x], x));
                if (S_[x] == -1) {
                    d = std::min(d, delta);
                } else if (S_[x] == 0) {
                    d = std::min(d, delta / 2);
                }
            }
        }
        for (int u = 1; u <= n_; ++u) {
            if (S_[st_[u]] == 0) {
                if (lab_[u] <= d) {
                    return false;
                }
                lab_[u] -= d;
            } else if (S_[st_[u]] == 1) {
                lab_[u] += d;
            }
        }
        for (int b = n_ + 1; b <= nx_; ++b) {
            if (st_[b] == b) {
                if (S_[b] == 0) {
                    lab_[b] += 2 * d;
                } else if (S_[b] == 1) {
                    lab_[b] -= 2 * d;
                }
            }
        }
        queue_.clear();
        queueHead_ = 0;
        for (int x = 1; x <= nx_; ++x) {
            if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                eDelta(gu(slack_[x], x), gv(slack_[x], x)) == 0) {
                if (onFoundEdge(gu(slack_[x], x),
                                gv(slack_[x], x))) {
                    return true;
                }
            }
        }
        for (int b = n_ + 1; b <= nx_; ++b) {
            if (st_[b] == b && S_[b] == 1 && lab_[b] == 0) {
                expandBlossom(b);
            }
        }
    }
}

const std::vector<int> &
BlossomSolver::maxWeightMatching(
    const std::vector<std::vector<long long>> &weights)
{
    const int n = static_cast<int>(weights.size()) - 1;
    beginDense(n);
    // Copy each directed entry as-is (matching the historical
    // behavior for callers that fill only one triangle); wMax_
    // feeds the initial dual values.
    for (int u = 1; u <= n; ++u) {
        for (int v = 1; v <= n; ++v) {
            gw(u, v) = 2 * weights[u][v];
            wMax_ = std::max(wMax_, gw(u, v));
        }
    }
    run();
    return match_;
}

void
BlossomSolver::solve(const MatchingProblem &problem,
                     MatchingSolution &out)
{
    QEC_REALTIME;
    const int n = problem.n;
    out.mate.clear();
    out.totalWeight = 0.0;
    out.valid = false;
    if (n == 0) {
        out.valid = true;
        return;
    }

    // Doubled-graph weights are big - w: maximizing them minimizes
    // the integer weight among perfect matchings, and big > n * w_max
    // makes every perfect matching (n edges, each worth at least
    // big - w_max) outweigh every matching with n - 1 edges, so the
    // maximum-weight matching is perfect whenever one exists.
    Weight w_max = 0;
    for (int i = 0; i < n; ++i) {
        if (problem.boundaryWeight[i] != kNoEdge) {
            w_max = std::max(w_max, problem.boundaryWeight[i]);
        }
        for (int j = i + 1; j < n; ++j) {
            if (problem.pair(i, j) != kNoEdge) {
                w_max = std::max(w_max, problem.pair(i, j));
            }
        }
    }
    const long long big = n * w_max + 1;

    if (n == 1) {
        // Single defect: twin edge is the only option.
        if (problem.boundaryWeight[0] == kNoEdge) {
            return;
        }
        rt::pushBack(out.mate, -1);
        out.totalWeight = toNats(problem.boundaryWeight[0]);
        out.valid = true;
        return;
    }

    // Doubled graph: defects 1..n, twins n+1..2n (1-based), written
    // straight into the dense core — no intermediate matrix.
    beginDense(2 * n);
    for (int i = 0; i < n; ++i) {
        if (problem.boundaryWeight[i] != kNoEdge) {
            setEdge(i + 1, n + i + 1,
                    big - problem.boundaryWeight[i]);
        }
        for (int j = i + 1; j < n; ++j) {
            if (problem.pair(i, j) != kNoEdge) {
                setEdge(i + 1, j + 1,
                        big - problem.pair(i, j));
            }
            // Twins pair up for free.
            setEdge(n + i + 1, n + j + 1, big);
        }
    }
    run();

    rt::assignFill(out.mate, n, -2);
    for (int i = 1; i <= n; ++i) {
        const int m = match_[i];
        if (m == 0) {
            out.valid = false;
            return;
        }
        if (m == n + i) {
            out.mate[i - 1] = -1;
        } else if (m <= n) {
            out.mate[i - 1] = m - 1;
        } else {
            // Matched to a foreign twin: not a legal projection.
            out.valid = false;
            return;
        }
    }
    out.valid = true;
    out.totalWeight = toNats(matchingWeight(problem, out));
}

std::vector<int>
maxWeightMatchingDense(
    const std::vector<std::vector<long long>> &weights)
{
    BlossomSolver solver;
    return solver.maxWeightMatching(weights);
}

MatchingSolution
solveBlossom(const MatchingProblem &problem)
{
    BlossomSolver solver;
    MatchingSolution solution;
    solver.solve(problem, solution);
    return solution;
}

} // namespace qec
