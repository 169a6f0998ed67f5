/**
 * @file
 * Cross-stack span tracer: per-thread ring-buffer recorders feeding
 * one process-wide TraceSession that exports Chrome
 * `trace_event`-format JSON (loadable in Perfetto or
 * chrome://tracing).
 *
 * Design constraints, in order:
 *
 *  1. **Near-zero cost when disabled.** Every instrumentation site
 *     compiles down to one relaxed atomic load and a branch
 *     (`TraceSession::enabled()`); no clock read, no allocation, no
 *     lock. `bench_obs --smoke` gates this path at <= 1% of the
 *     engine's hot kernel loop.
 *  2. **Lock-free recording when enabled.** Each thread owns a
 *     fixed-capacity ring of TraceEvent slots and is the only
 *     writer; recording never blocks and never allocates after the
 *     ring exists. The ring wraps: a burst beyond capacity
 *     overwrites the oldest events and is counted as dropped.
 *  3. **Safe draining.** Export runs only with recording disabled;
 *     an RCU-style active counter per recorder lets the exporter
 *     wait out writers that raced past the disable flag, so
 *     TSan-clean concurrent shutdown needs no locks on the hot
 *     path.
 *
 * Two clock domains ride on every event: wall time in microseconds
 * since the session epoch (the `ts` Chrome expects) and, when the
 * instrumentation site knows it, the simulated device time as a
 * sim::Tick argument — so one Perfetto view correlates what the
 * host did with what the modeled silicon would have been doing.
 *
 * Event names and categories are `const char*` and must either be
 * string literals or strings interned through
 * TraceSession::intern(), which gives dynamic names (plan keys,
 * kernel tags) a stable address for the recorder's POD slots.
 *
 * Usage:
 *
 *     obs::TraceSession::instance().start();
 *     {
 *         VITCOD_TRACE_SPAN("gemm", "engine");
 *         ...                       // span closes at scope exit
 *     }
 *     obs::TraceSession::instance().stop();
 *     obs::TraceSession::instance().writeJsonFile("trace.json");
 */

#ifndef VITCOD_OBS_TRACE_H
#define VITCOD_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace vitcod::obs {

/** Chrome trace_event phases this tracer emits. */
enum class Phase : char
{
    Complete = 'X',  //!< span with duration
    Instant = 'i',   //!< point event
    Counter = 'C',   //!< named value over time
    FlowStart = 's', //!< flow arrow tail (e.g. request submitted)
    FlowStep = 't',  //!< flow arrow waypoint (e.g. dispatched)
    FlowEnd = 'f',   //!< flow arrow head (e.g. completed)
};

/**
 * One recorded event: a fixed-size POD slot of the per-thread ring.
 * Strings are borrowed pointers (literals or interned); numeric
 * payload is two optional named args plus an optional sim::Tick.
 */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    int64_t tsMicros = 0;  //!< wall clock, µs since session epoch
    int64_t durMicros = 0; //!< Complete events only
    uint64_t id = 0;       //!< flow/counter correlation id
    Phase phase = Phase::Instant;

    /** @name Optional named numeric arguments (arg key null = unset)
     *  @{ */
    const char *argKey1 = nullptr;
    double argVal1 = 0;
    const char *argKey2 = nullptr;
    double argVal2 = 0;
    /** @} */

    /** @name Optional named string argument (literal or interned)
     *  @{ */
    const char *argStrKey = nullptr;
    const char *argStrVal = nullptr;
    /** @} */

    /** Simulated-clock stamp; meaningful when hasTick. */
    sim::Tick tick = 0;
    bool hasTick = false;
};

/** Tuning of one tracing run. */
struct TraceConfig
{
    /** Events per thread ring; older events drop past this. */
    size_t ringCapacity = 1 << 16;

    /**
     * Test hook: monotonic µs clock override. Production uses
     * steady_clock against the session epoch; tests inject a fake
     * clock so exported JSON is bit-deterministic (golden
     * fixtures).
     */
    int64_t (*clockMicros)() = nullptr;
};

/** What one export produced (also serialized into the JSON). */
struct TraceExportStats
{
    size_t events = 0;  //!< events written
    size_t dropped = 0; //!< ring-overwritten events across threads
    size_t threads = 0; //!< recorder tracks
};

/**
 * Process-wide trace collector. All methods are thread-safe; the
 * hot recording path (through the macros below) is lock-free.
 */
class TraceSession
{
  public:
    /** The process-wide session the macros record into. */
    static TraceSession &instance();

    /**
     * Enable recording. Clears all previously recorded events and
     * re-arms every thread's ring. No-op when already running.
     */
    void start(TraceConfig cfg = {});

    /** Disable recording; events stay buffered for export. */
    void stop();

    bool running() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * The disabled-path branch every instrumentation site takes:
     * one relaxed atomic load.
     */
    static bool enabled()
    {
        return instance().enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Give @p s a stable address for TraceEvent name/category
     * fields. Interned strings live until process exit; intended
     * for low-cardinality dynamic names (plan keys, bench tags),
     * not per-event payloads.
     */
    const char *intern(std::string_view s);

    /**
     * Record one event into the calling thread's ring. Callers
     * should gate on enabled() first; record() re-checks and drops
     * the event when disabled.
     */
    void record(const TraceEvent &ev);

    /**
     * Name the calling thread's track in exported traces (emitted
     * as Chrome thread_name metadata). Safe to call before start();
     * the name sticks for the thread's lifetime.
     */
    void setThreadName(std::string_view name);

    /**
     * Export everything recorded as Chrome trace_event JSON
     * (`{"traceEvents": [...], ...}`), sorted by timestamp.
     * @pre !running() — stop() first; export fatal()s otherwise.
     */
    TraceExportStats writeJson(std::ostream &os);

    /** writeJson() into @p path; fatal() on I/O failure. */
    TraceExportStats writeJsonFile(const std::string &path);

    /** Wall µs since the session epoch (respects the test clock). */
    int64_t nowMicros() const;

    /** Events currently buffered across all threads (diagnostic). */
    size_t bufferedEvents() const;

    /** Events dropped to ring wraparound across all threads. */
    size_t droppedEvents() const;

  private:
    TraceSession();
    ~TraceSession();
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    struct Recorder;
    struct Impl;

    /** The calling thread's recorder (created on first use). */
    Recorder &localRecorder();

    std::atomic<bool> enabled_{false};
    Impl *impl_; //!< never freed: threads may outlive main
};

/**
 * RAII span: records a Complete ('X') event covering its lifetime.
 * When tracing is disabled at construction the guard is inert —
 * no clock read, nothing recorded at destruction (a span must not
 * straddle a start(): its begin timestamp would predate the
 * session epoch).
 */
class SpanGuard
{
  public:
    explicit SpanGuard(const char *name, const char *category = "")
        : name_(name), category_(category),
          live_(TraceSession::enabled())
    {
        if (live_)
            ev_.tsMicros = TraceSession::instance().nowMicros();
    }

    /** Span with one named numeric argument. */
    SpanGuard(const char *name, const char *category, const char *k1,
              double v1)
        : SpanGuard(name, category)
    {
        arg(k1, v1);
    }

    /** Span with two named numeric arguments. */
    SpanGuard(const char *name, const char *category, const char *k1,
              double v1, const char *k2, double v2)
        : SpanGuard(name, category)
    {
        arg(k1, v1);
        arg(k2, v2);
    }

    ~SpanGuard()
    {
        if (!live_)
            return;
        TraceSession &s = TraceSession::instance();
        ev_.name = name_;
        ev_.category = category_;
        ev_.phase = Phase::Complete;
        ev_.durMicros = s.nowMicros() - ev_.tsMicros;
        s.record(ev_);
    }

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

    /** Attach a named numeric argument (first two stick). */
    SpanGuard &arg(const char *key, double v)
    {
        if (live_) {
            if (!ev_.argKey1) {
                ev_.argKey1 = key;
                ev_.argVal1 = v;
            } else if (!ev_.argKey2) {
                ev_.argKey2 = key;
                ev_.argVal2 = v;
            }
        }
        return *this;
    }

    /**
     * Attach a named string argument (one slot; first call sticks).
     * Both pointers must be literals or interned strings — the
     * recorder's slots are POD and borrow them.
     */
    SpanGuard &argStr(const char *key, const char *value)
    {
        if (live_ && !ev_.argStrKey) {
            ev_.argStrKey = key;
            ev_.argStrVal = value;
        }
        return *this;
    }

    /** Stamp the span with a simulated-clock time. */
    SpanGuard &tick(sim::Tick t)
    {
        if (live_) {
            ev_.tick = t;
            ev_.hasTick = true;
        }
        return *this;
    }

    /** Whether this guard is recording (tracing was on). */
    bool live() const { return live_; }

  private:
    const char *name_;
    const char *category_;
    bool live_;
    TraceEvent ev_;
};

/** @name Free-function emitters (no-ops when tracing is disabled)
 *  @{ */

/** Point event on the calling thread's track. */
void instant(const char *name, const char *category = "");

/** Counter track sample (Chrome 'C' event). */
void counterEvent(const char *name, double value,
                  const char *category = "");

/** Flow tail: begins arrow @p id (e.g. at request submit). */
void flowStart(const char *name, uint64_t id,
               const char *category = "");

/** Flow waypoint on arrow @p id (e.g. at dispatch). */
void flowStep(const char *name, uint64_t id,
              const char *category = "");

/** Flow head: ends arrow @p id (e.g. at completion). */
void flowEnd(const char *name, uint64_t id,
             const char *category = "");

/** @} */

// Span macros: declare a scoped SpanGuard with a unique name. The
// expression compiles to a single relaxed-atomic load + branch when
// tracing is disabled. Arguments beyond (name, category) forward to
// the SpanGuard argument constructors:
//
//     VITCOD_TRACE_SPAN("sddmm", "engine", "nnz", double(nnz));
//
// Sites that need .tick() or conditional args declare a named
// SpanGuard instead of using the macro.
//
#define VITCOD_TRACE_CONCAT_(a, b) a##b
#define VITCOD_TRACE_CONCAT(a, b) VITCOD_TRACE_CONCAT_(a, b)
#define VITCOD_TRACE_SPAN(...)                                        \
    ::vitcod::obs::SpanGuard VITCOD_TRACE_CONCAT(vitcod_trace_span_,  \
                                                 __LINE__)            \
    {                                                                 \
        __VA_ARGS__                                                   \
    }

} // namespace vitcod::obs

#endif // VITCOD_OBS_TRACE_H
