/**
 * @file
 * The benchmark's own statistics: medians and quartiles over
 * repeated measurements, tail percentiles that keep enough samples
 * beyond them to mean something, self time of nested trace spans,
 * and latency of an open-loop schedule measured from each request's
 * due time. Header-only and free of library dependencies so
 * tests/selftest.cpp can check it in isolation.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Median and quartiles of repeated measurements of one metric. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

inline double
medianOfSorted(const std::vector<double> &sorted)
{
    const size_t n = sorted.size();
    if (n == 0) {
        return 0.0;
    }
    return n % 2 ? sorted[n / 2]
                 : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/**
 * Median and first/third quartiles. The quartiles use the
 * "exclusive" method of Python's statistics.quantiles(values, n=4),
 * so a spread printed here reads the same as one computed from the
 * result files in Python.
 */
inline Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty()) {
        return s;
    }
    std::sort(values.begin(), values.end());
    s.median = medianOfSorted(values);
    if (values.size() == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                    values[j] * static_cast<double>(delta)) /
                   4.0;
    }
    s.q1 = q[0];
    s.q3 = q[2];
    return s;
}

/** A tail percentile together with the support behind it. */
struct Tail
{
    double value = 0.0;
    /** Quantile actually reported (<= the one asked for). */
    double quantile = 0.0;
    /** Samples strictly beyond the reported rank. */
    size_t beyond = 0;
    size_t n = 0;
};

/**
 * Nearest-rank tail percentile of ascending `sorted`, lowered when
 * needed so that at least `minBeyond` samples lie beyond it: a p99
 * over 500 samples would rest on five values, so it is reported as
 * the p98 instead, and the caller prints the quantile it got.
 */
inline Tail
tailPercentile(const std::vector<double> &sorted, double wanted,
               size_t minBeyond = 10)
{
    Tail t;
    t.n = sorted.size();
    if (t.n == 0) {
        return t;
    }
    size_t rank = static_cast<size_t>(
        std::ceil(wanted * static_cast<double>(t.n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, t.n);
    if (t.n - rank < minBeyond) {
        rank = t.n > minBeyond ? t.n - minBeyond : 1;
    }
    t.value = sorted[rank - 1];
    t.quantile =
        static_cast<double>(rank) / static_cast<double>(t.n);
    t.beyond = t.n - rank;
    return t;
}

/** Sort a copy and take its supported tail percentile. */
inline Tail
tailOf(std::vector<double> values, double wanted,
       size_t minBeyond = 10)
{
    std::sort(values.begin(), values.end());
    return tailPercentile(values, wanted, minBeyond);
}

/** Median of an unsorted sample. */
inline double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return medianOfSorted(values);
}

/** One recorded span: a timed call into a layer. */
struct Span
{
    /** Index into the recorder's name table. */
    uint32_t name = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int32_t parent = -1;
    /** Sample or request the span belongs to. */
    uint64_t id = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its child spans (children clipped to the
 * parent and overlaps merged, so concurrent children count once).
 * Parents must precede their children, as a recorder that opens a
 * span before its callees guarantees.
 */
inline std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    const size_t n = spans.size();
    std::vector<std::vector<size_t>> children(n);
    for (size_t i = 0; i < n; ++i) {
        if (spans[i].parent >= 0) {
            children[static_cast<size_t>(spans[i].parent)]
                .push_back(i);
        }
    }
    std::vector<int64_t> self(n, 0);
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        cover.clear();
        for (size_t c : children[i]) {
            const int64_t lo = std::max(spans[c].startNs, s.startNs);
            const int64_t hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo) {
                cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0;
        int64_t runLo = 0, runHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : cover) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open) {
                covered += runHi - runLo;
            }
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open) {
            covered += runHi - runLo;
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

/**
 * Fixed-rate open-loop arrival schedule: request i is due at
 * startNs + i / rate, whether or not the generator keeps up.
 * Latency is measured from the due time, so a generator stall is
 * charged to every request it delayed rather than hidden by
 * timing from the (late) send.
 */
struct OpenLoopSchedule
{
    int64_t startNs = 0;
    double ratePerS = 1.0;

    int64_t
    dueNs(uint64_t i) const
    {
        return startNs + static_cast<int64_t>(std::llround(
                             static_cast<double>(i) * 1e9 /
                             ratePerS));
    }

    /** Completion time minus due time. */
    int64_t
    latencyNs(uint64_t i, int64_t doneNs) const
    {
        return doneNs - dueNs(i);
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
