/**
 * @file
 * Self-tests of the benchmark's own statistics (src/stats.hpp). Built
 * with the benchmark and run by perfbench/run.py before every
 * measurement; a failure stops the run before any number is printed.
 *
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

using perfbench::Span;

void
testQuartiles()
{
    // Reference values from Python:
    //   statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i) {
        ten.push_back(i); // Unsorted input on purpose.
    }
    const perfbench::Summary s = perfbench::summarize(ten);
    check(near(s.q1, 2.75) && near(s.median, 5.5) && near(s.q3, 8.25),
          "quartiles of 1..10 match statistics.quantiles");
    check(s.n == 10, "summary counts its inputs");

    //   statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    const perfbench::Summary three = perfbench::summarize({3, 1, 2});
    check(near(three.q1, 1.0) && near(three.median, 2.0) &&
              near(three.q3, 3.0),
          "quartiles of three values clamp to the ends");

    //   statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
    const perfbench::Summary two = perfbench::summarize({5, 7});
    check(near(two.q1, 4.5) && near(two.median, 6.0) &&
              near(two.q3, 7.5),
          "quartiles of two values extrapolate like Python");

    const perfbench::Summary one = perfbench::summarize({4});
    check(near(one.q1, 4) && near(one.q3, 4) && near(one.median, 4),
          "a single value is its own quartiles");
}

void
testTailPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 2000; ++i) {
        v.push_back(i);
    }
    // Enough samples: the p99 is the plain nearest-rank p99.
    perfbench::Tail t = perfbench::tailPercentile(v, 0.99);
    check(near(t.value, 1980) && near(t.quantile, 0.99) &&
              t.beyond == 20,
          "p99 of 2000 samples keeps 20 beyond it");

    // Exactly 1000 samples still support a p99 with 10 beyond.
    v.resize(1000);
    t = perfbench::tailPercentile(v, 0.99);
    check(near(t.value, 990) && t.beyond == 10,
          "p99 of 1000 samples has exactly 10 beyond");

    // 500 samples: lowered to the rank with 10 samples beyond.
    v.resize(500);
    t = perfbench::tailPercentile(v, 0.99);
    check(near(t.value, 490) && t.beyond == 10 &&
              near(t.quantile, 0.98),
          "p99 of 500 samples is lowered to keep 10 beyond");

    // Too few samples for any 10 beyond: the minimum is reported.
    v.resize(5);
    t = perfbench::tailPercentile(v, 0.99);
    check(near(t.value, 1) && t.beyond == 4,
          "tiny samples fall back to the smallest value");

    check(perfbench::tailPercentile({}, 0.99).n == 0,
          "empty input gives an empty tail");
}

void
testSelfTime()
{
    // root [0, 100) with children a [10, 40) and b [30, 60) that
    // overlap, plus c [90, 120) spilling past the root's end; a has
    // a grandchild g [15, 25).
    std::vector<Span> spans(5);
    spans[0] = {0, -1, 7, 0, 100};
    spans[1] = {1, 0, 7, 10, 40};
    spans[2] = {2, 0, 7, 30, 60};
    spans[3] = {3, 0, 7, 90, 120};
    spans[4] = {4, 1, 7, 15, 25};
    const std::vector<int64_t> self = perfbench::selfTimes(spans);
    // Root: covered [10, 60) + [90, 100) = 60 -> self 40.
    check(self[0] == 40, "root self time subtracts merged children");
    check(self[1] == 20, "child self time subtracts its grandchild");
    check(self[2] == 30 && self[3] == 30 && self[4] == 10,
          "leaf self time is its duration");

    // Sequential children, as the single-threaded traced run makes:
    // self times of a tree sum to the root's duration.
    std::vector<Span> seq(4);
    seq[0] = {0, -1, 1, 0, 1000};
    seq[1] = {1, 0, 1, 100, 400};
    seq[2] = {2, 0, 1, 400, 900};
    seq[3] = {3, 2, 1, 500, 600};
    const std::vector<int64_t> s2 = perfbench::selfTimes(seq);
    check(s2[0] + s2[1] + s2[2] + s2[3] == 1000,
          "self times of nested spans add up to the root");
}

void
testDueTimeLatency()
{
    // 1000 requests/s from t = 0: request i is due at i ms. The
    // generator stalls for 5 ms before request 2 and then sends the
    // backlog at once; each request takes 100 us of service.
    const perfbench::OpenLoopSchedule sched{0, 1000.0};
    check(sched.dueNs(3) == 3'000'000, "due time is start + i / rate");
    const int64_t sent[5] = {0, 1'000'000, 7'000'000, 7'000'000,
                             7'000'000};
    int64_t worst = 0, worstFromSend = 0;
    for (uint64_t i = 0; i < 5; ++i) {
        const int64_t done = sent[i] + 100'000;
        worst = std::max(worst, sched.latencyNs(i, done));
        worstFromSend = std::max(worstFromSend, done - sent[i]);
    }
    // Request 2 was due at 2 ms and done at 7.1 ms.
    check(worst == 5'100'000,
          "due-time latency charges the stall to delayed requests");
    check(worstFromSend == 100'000,
          "timing from the send would hide the stall");

    // A schedule that falls behind for good: the generator can only
    // send every 2 ms against a 1 ms schedule, so latency grows.
    int64_t last = 0;
    bool growing = true;
    for (uint64_t i = 1; i < 10; ++i) {
        const int64_t lat = sched.latencyNs(
            i, static_cast<int64_t>(i) * 2'000'000 + 100'000);
        growing = growing && lat > last;
        last = lat;
    }
    check(growing && last == 9'100'000,
          "a generator that falls behind shows growing latency");
}

} // namespace

int
main()
{
    testQuartiles();
    testTailPercentile();
    testSelfTime();
    testDueTimeLatency();
    if (failures) {
        std::fprintf(stderr, "%d selftest check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
