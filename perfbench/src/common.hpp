/**
 * @file
 * Shared plumbing of the benchmark binary: the clock, command-line
 * arguments, host provenance, peak RSS, and the metric report that
 * ends every run with one machine-readable JSON line.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/**
 * Run `fn` on a new thread and wait for it. The scheduler places each
 * call anew, so repeated measurements sample several CPUs of a shared
 * host instead of whichever one the main thread sits on for the whole
 * run. The caller is blocked meanwhile, so this adds no concurrency.
 */
template <class F>
void
onFreshThread(F &&fn)
{
    std::exception_ptr error;
    std::thread thread([&] {
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    thread.join();
    if (error) {
        std::rethrow_exception(error);
    }
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span file and the host record. */
    std::string outDir = ".";
};

/** Parse argv; prints usage and returns false on bad input. */
bool parseArgs(int argc, char **argv, Args &args);

/**
 * Host provenance as a JSON object: CPU model, nproc, compiler,
 * build type, and the source revision handed in by run.py through
 * PERFBENCH_SOURCE_SHA (a git sha, or a tree hash outside git).
 */
std::string hostJson();

/** "q=0.9900, 12 beyond, n=1200": the support of a tail value. */
std::string tailNote(const Tail &t);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Derive an independent 64-bit stream seed from the run seed, so
 * the workload's phases draw unrelated inputs from one --seed.
 */
uint64_t deriveSeed(uint64_t seed, uint64_t phase);

/** Metrics of one run, printed as text and as a final JSON line. */
class Report
{
  public:
    /** A repeated measurement: reports its median, with quartiles. */
    void add(const std::string &name, const std::string &unit,
             const Summary &summary, const std::string &note = "");

    /** A single measured value (a count, or a one-shot time). */
    void add(const std::string &name, const std::string &unit,
             double value, const std::string &note = "");

    /**
     * Record `attempted` operations of which `failed` failed (a
     * wrong output, or for serving also a shed or expired request).
     * A failed operation alone does not make the run incorrect; a
     * failed correctness gate does.
     */
    void
    count(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /** Record a failed correctness gate with its explanation. */
    void fail(const std::string &why);

    bool correct() const { return gates_.empty(); }

    /**
     * Print every metric as "name = median unit [q1, q3] n=..."
     * lines, then the JSON line
     * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
     */
    void print() const;

  private:
    struct Metric
    {
        std::string name, unit, note;
        double value = 0.0;
        Summary summary;
        bool repeated = false;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> gates_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

int runLer(const Args &args, Report &report);
int runServe(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
