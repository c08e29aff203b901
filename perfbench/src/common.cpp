#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench
{

namespace
{

bool
parseUnsigned(const char *text, uint64_t &out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!end || *end != '\0' || text[0] == '-' || text[0] == '\0') {
        return false;
    }
    out = v;
    return true;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t start = colon + 1;
                while (start < line.size() && line[start] == ' ') {
                    ++start;
                }
                return line.substr(start);
            }
        }
    }
    return "unknown";
}

/** A double with all significant digits, JSON-safe. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** A JSON string literal, quotes included. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n",
                         flag.c_str());
            return false;
        }
        const char *value = argv[++i];
        uint64_t number = 0;
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed" && parseUnsigned(value, number)) {
            args.seed = number;
        } else if (flag == "--seconds" &&
                   parseUnsigned(value, number) && number >= 1 &&
                   number <= 3600) {
            args.seconds = static_cast<double>(number);
        } else if (flag == "--trace" &&
                   parseUnsigned(value, number) && number <= 1) {
            args.trace = number == 1;
        } else if (flag == "--out-dir") {
            args.outDir = value;
        } else {
            std::fprintf(stderr, "bad argument %s %s\n",
                         flag.c_str(), value);
            return false;
        }
    }
    if (!haveWorkload) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME [--seed N] "
                     "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    }
    return haveWorkload;
}

std::string
hostJson()
{
    const char *sha = std::getenv("PERFBENCH_SOURCE_SHA");
    return "{\"cpu_model\":" + jsonString(cpuModel()) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"git_sha\":" +
           jsonString(sha && *sha ? sha : "unknown") + "}";
}

std::string
tailNote(const Tail &t)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "q=%.4f, %zu beyond, n=%zu",
                  t.quantile, t.beyond, t.n);
    return buf;
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB.
}

uint64_t
deriveSeed(uint64_t seed, uint64_t phase)
{
    // splitmix64 over (seed, phase).
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + phase + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Report::add(const std::string &name, const std::string &unit,
            const Summary &summary, const std::string &note)
{
    metrics_.push_back(
        {name, unit, note, summary.median, summary, true});
}

void
Report::add(const std::string &name, const std::string &unit,
            double value, const std::string &note)
{
    Summary single;
    single.median = single.q1 = single.q3 = value;
    single.n = 1;
    metrics_.push_back({name, unit, note, value, single, false});
}

void
Report::fail(const std::string &why)
{
    gates_.push_back(why);
    std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n",
                 why.c_str());
}

void
Report::print() const
{
    std::printf("metrics (median [q1, q3] over n repeats):\n");
    for (const Metric &m : metrics_) {
        if (m.repeated) {
            std::printf("  %-34s = %.6g %s  [%.6g, %.6g] n=%zu",
                        m.name.c_str(), m.value, m.unit.c_str(),
                        m.summary.q1, m.summary.q3, m.summary.n);
        } else {
            std::printf("  %-34s = %.6g %s", m.name.c_str(),
                        m.value, m.unit.c_str());
        }
        if (!m.note.empty()) {
            std::printf("  (%s)", m.note.c_str());
        }
        std::printf("\n");
    }
    std::printf("failed_share = %.6g (%llu failed of %llu attempted); "
                "%zu correctness gate failure(s)\n",
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                gates_.size());
    std::string json = "{\"correct\":";
    json += correct() ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(attempted_);
    json += ",\"failed\":" + std::to_string(failed_);
    json += ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        if (i) {
            json += ',';
        }
        json += jsonString(metrics_[i].name) +
                ":{\"value\":" + jsonNumber(metrics_[i].value) +
                ",\"unit\":" + jsonString(metrics_[i].unit) +
                ",\"q1\":" + jsonNumber(metrics_[i].summary.q1) +
                ",\"q3\":" + jsonNumber(metrics_[i].summary.q3) +
                ",\"n\":" + std::to_string(metrics_[i].summary.n) +
                "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

SpanRecorder::SpanRecorder(std::vector<std::string> names,
                           size_t capacity)
    : names_(std::move(names)), capacity_(capacity)
{
    spans_.reserve(capacity_);
    stack_.reserve(16);
}

bool
SpanRecorder::writeJsonLines(const std::string &path,
                             const std::string &hostJson) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        return false;
    }
    std::fprintf(out,
                 "{\"format\":\"perfbench-spans-v1\",\"spans\":%zu,"
                 "\"host\":%s}\n",
                 spans_.size(), hostJson.c_str());
    const std::vector<int64_t> self = selfTimes(spans_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                     "\"req\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"self_ns\":%lld}\n",
                     i, s.parent, names_[s.name].c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
