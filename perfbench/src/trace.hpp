/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each call it makes into a library layer (name, start,
 * end, enclosing span, sample or request id), keeps every span in a
 * preallocated vector, and writes them out as JSON lines when the run
 * ends. Single-threaded by design: the traced run drives the layers
 * serially so that the spans nest and self times add up to the wall
 * time.
 *
 * With recording disabled, Scope does nothing and reads no clock, so
 * one loop body serves both the traced pass and the untraced pass
 * that the tracing overhead is measured against.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench
{

class SpanRecorder
{
  public:
    /** Span names, in name-id order; fixed for the whole run. */
    explicit SpanRecorder(std::vector<std::string> names,
                          size_t capacity);

    /** Turn recording on or off (off: Scope is a no-op). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** True once the preallocated span storage is used up. */
    bool full() const { return spans_.size() >= capacity_; }

    /** Open a span nested in the innermost open one. */
    int32_t
    open(uint32_t name, uint64_t id)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.id = id;
        s.startNs = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int32_t index)
    {
        spans_[static_cast<size_t>(index)].endNs = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans as JSON lines: a header line
     * {"format":"perfbench-spans-v1", ...host fields...}, then one
     * object per span with keys id (span index), parent (-1 for a
     * root), name, req (sample or request id), start_ns, end_ns
     * (steady clock) and self_ns. Returns false on an I/O error.
     */
    bool writeJsonLines(const std::string &path,
                        const std::string &hostJson) const;

    /** RAII span; does nothing when the recorder is disabled. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, uint32_t name, uint64_t id)
            : rec_(rec.enabled_ ? &rec : nullptr)
        {
            if (rec_) {
                index_ = rec_->open(name, id);
            }
        }
        ~Scope()
        {
            if (rec_) {
                rec_->close(index_);
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int32_t index_ = -1;
    };

  private:
    std::vector<std::string> names_;
    size_t capacity_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
