/**
 * @file
 * Real-time hot-path annotation for the static contract auditor.
 *
 * The repo's real-time contracts (zero steady-state allocation, no
 * locks, no clock reads, no throws, no nondeterminism — see
 * docs/api.md "Workspace & memory contract" and "Robustness
 * contract") are enforced dynamically by the counting-allocator and
 * sanitizer suites, and *statically* by tools/rt_audit: a whole-
 * program pass over the compiled objects that proves no annotated
 * root ever reaches a forbidden symbol through any direct call
 * chain (docs/static_analysis.md).
 *
 * Place QEC_REALTIME; as the first statement of every hot-path
 * entry point: Decoder::decode and Predecoder::predecode
 * implementations, the packed Decoder::decodeBlock and
 * Predecoder::predecodeBlock loops, the matching/oracle layer,
 * SyndromeSubgraph build/refresh, the arena, and the serve worker
 * loop. The macro emits one address-materializing instruction
 * whose relocation names qec_rt_root_anchor; the auditor treats any
 * function whose body relocates against that anchor as an audit
 * root. The instruction
 * never loads or stores through the address, so the runtime cost is
 * one dead lea per call.
 *
 * What annotating a function obligates you to (the auditor enforces
 * it at build time, with the deliberate exceptions documented in
 * tools/rt_audit/allow.txt):
 *  - no allocation outside the workspace discipline (capacity-
 *    keeping members and the MonotonicArena cold grow path),
 *  - no locks, condition variables, or one-time-init guards,
 *  - no clock or sleep syscalls (inject a TimeSource instead),
 *  - no throwing, no I/O (funnel invariant failures through
 *    QEC_PANIC, whose outlined noreturn helper is exempt),
 *  - no nondeterminism (rand/random_device); use qec::Rng streams.
 *
 * Virtual calls carry no static edge, so the audit closes over
 * polymorphic dispatch by convention: every override reachable from
 * a hot path must itself be annotated (the registry-wide hot-path
 * surface is pinned by tools/rt_audit/baseline.txt, which fails CI
 * when an annotation is dropped).
 */

#ifndef QEC_UTIL_REALTIME_HPP
#define QEC_UTIL_REALTIME_HPP

extern "C" {
/**
 * Link-time marker the auditor scans relocations for. Never read or
 * written at runtime; defined in realtime.cpp.
 */
extern const char qec_rt_root_anchor[];
}

#if defined(__GNUC__) || defined(__clang__)
/**
 * Mark the enclosing function as a real-time audit root. Expands to
 * a single lea (address materialization) of qec_rt_root_anchor so
 * the function's object code carries a relocation naming the
 * anchor; the asm is volatile so no optimization level drops it.
 */
#define QEC_REALTIME                                                \
    do {                                                            \
        asm volatile("" ::"r"(qec_rt_root_anchor));                 \
    } while (0)
#else
// Non-GNU toolchains get no marker (and cannot run the auditor,
// which parses GNU binutils output anyway).
#define QEC_REALTIME                                                \
    do {                                                            \
    } while (0)
#endif

/**
 * Outlined-cold-path attribute: the auditor's allowlist exempts
 * deliberate cold paths (arena chunk growth, trace bookkeeping,
 * panic formatting) by symbol name, which only works when the cold
 * path *is* a symbol — QEC_RT_COLD keeps it from inlining back into
 * the annotated caller.
 */
#if defined(__GNUC__) || defined(__clang__)
#define QEC_RT_COLD __attribute__((noinline, cold))
#else
#define QEC_RT_COLD
#endif

/**
 * Outline-only attribute for warm helpers: like QEC_RT_COLD it
 * guarantees the helper stays a distinct symbol the allowlist can
 * name, but without `cold`, so code that runs on every call (e.g.
 * the qec::rt:: growth funnels, trace bookkeeping) keeps full
 * optimization and normal text placement.
 */
#if defined(__GNUC__) || defined(__clang__)
#define QEC_RT_OUTLINE __attribute__((noinline))
#else
#define QEC_RT_OUTLINE
#endif

#endif // QEC_UTIL_REALTIME_HPP
