/**
 * @file
 * Deterministic fork/join helper shared by the batched decode path
 * and the LER evaluation engine.
 *
 * parallelFor runs `body` over chunks of [0, n) pulled from a
 * shared atomic counter (work stealing): fast workers take more
 * chunks, so skewed per-index costs — e.g. the Astrea-G high-HW
 * search tails — no longer idle the other workers the way a static
 * partition did. A worker may therefore receive several
 * (begin, end) calls, in any order.
 *
 * Determinism contract: which worker runs which chunk is
 * scheduling-dependent, so bodies must key all per-index work off
 * the index itself (e.g. counter-based RNG streams via
 * Rng::forSample) and use per-worker state only for reusable
 * scratch or commutative accumulation. Every caller in this
 * codebase follows that rule, which is what keeps estimateLer and
 * estimateLerDirect bit-identical for any thread count even with
 * dynamic scheduling (enforced by tests/test_parallel_ler.cpp).
 */

#ifndef QEC_UTIL_PARALLEL_FOR_HPP
#define QEC_UTIL_PARALLEL_FOR_HPP

#include <cstddef>
#include <functional>

namespace qec
{

/**
 * The project-wide thread-count convention, resolved: values <= 0
 * mean one worker per hardware thread; positive values pass
 * through. Always returns >= 1.
 */
int resolveHardwareThreads(int threads);

/**
 * Run `body(begin, end, worker)` over chunks of [0, n), pulled
 * from an atomic chunk queue by up to `threads` workers.
 *
 * @param n        iteration-space size; n == 0 returns immediately
 * @param threads  requested worker count; <= 0 means one per
 *                 hardware thread (resolveHardwareThreads), then
 *                 clamped to [1, n]. With one effective worker the
 *                 body runs inline on the calling thread (no
 *                 spawn, single call covering [0, n)).
 * @param body     chunk handler; `worker` is the executing
 *                 worker's index in [0, workers) and may see
 *                 several chunks. The body must key per-index work
 *                 off the index (not the worker or chunk bounds),
 *                 touch only state disjoint between indices (e.g.
 *                 per-index output cells) or owned by `worker`,
 *                 and accumulate per-worker state commutatively;
 *                 exceptions must not escape it.
 */
void parallelFor(
    size_t n, int threads,
    const std::function<void(size_t begin, size_t end, int worker)>
        &body);

/**
 * Effective worker count parallelFor would use:
 * clamp(resolveHardwareThreads(threads), 1, n). Exposed so callers
 * can size per-worker scratch state.
 */
int parallelWorkers(size_t n, int threads);

} // namespace qec

#endif // QEC_UTIL_PARALLEL_FOR_HPP
