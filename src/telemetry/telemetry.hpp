/**
 * @file
 * The telemetry session: one metrics registry plus one trace timeline,
 * installed process-globally so instrumentation sites anywhere in the
 * sim stack can reach it with a single relaxed atomic load.
 *
 * Disabled-by-default discipline: no session is installed unless a
 * tool or test explicitly creates one (gpmtrace, test_telemetry), so
 * every instrumentation site costs exactly one null-check on the hot
 * path — the overhead asserted < 2% by bench/overhead_guards.
 * Defining GPM_TELEMETRY_DISABLED at compile time turns current()
 * into a constant nullptr and the compiler removes the sites outright.
 *
 * Telemetry is an observer: it never feeds back into modelled time,
 * RNG draws, or functional state, so an instrumented run's simulated
 * results are bit-identical with and without a session installed (the
 * parallel-equality test in test_telemetry leans on this).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace gpm::telemetry {

/** A live telemetry collection: metrics + trace. */
class Session
{
  public:
    Registry metrics;
    Trace trace;

    /** The installed session, or nullptr when telemetry is off. */
    static Session *
    current()
    {
#ifdef GPM_TELEMETRY_DISABLED
        return nullptr;
#else
        return g_current.load(std::memory_order_acquire);
#endif
    }

    /** Install @p s process-globally (nullptr uninstalls). */
    static void
    install(Session *s)
    {
        g_current.store(s, std::memory_order_release);
    }

  private:
    static inline std::atomic<Session *> g_current{nullptr};
};

/** RAII session for tools and tests: installs on construction,
 *  uninstalls on destruction. */
class ScopedSession
{
  public:
    ScopedSession() { Session::install(&s_); }
    ~ScopedSession() { Session::install(nullptr); }

    ScopedSession(const ScopedSession &) = delete;
    ScopedSession &operator=(const ScopedSession &) = delete;

    Session &operator*() { return s_; }
    Session *operator->() { return &s_; }

  private:
    Session s_;
};

/** True when a session is installed. */
inline bool
enabled()
{
    return Session::current() != nullptr;
}

/** Bump counter @p name by @p n when a session is installed. */
inline void
count(std::string_view name, std::uint64_t n = 1)
{
    if (Session *s = Session::current())
        s->metrics.add(name, n);
}

/** Set gauge @p name when a session is installed. */
inline void
gaugeSet(std::string_view name, double v)
{
    if (Session *s = Session::current())
        s->metrics.gaugeSet(name, v);
}

/** Accumulate into gauge @p name when a session is installed. */
inline void
gaugeAdd(std::string_view name, double v)
{
    if (Session *s = Session::current())
        s->metrics.gaugeAdd(name, v);
}

/** Record into histogram @p name when a session is installed. */
inline void
observe(std::string_view name, double v)
{
    if (Session *s = Session::current())
        s->metrics.observe(name, v);
}

/**
 * RAII trace span: records a complete event over its lifetime and
 * observes its wall-time into the "<cat>.wall_us" histogram.
 *
 * The session is captured at construction; a null category (or no
 * installed session) makes the span inert — name/args are then never
 * copied or rendered, so a disarmed span costs one atomic load.
 *
 * Spans survive exception unwinding (the destructor emits), which is
 * how crash-armed kernel launches still appear on the timeline.
 */
class Span
{
  public:
    Span(const char *cat, std::string_view name)
    {
        if (cat == nullptr)
            return;
        if (Session *s = Session::current()) {
            s_ = s;
            cat_ = cat;
            name_ = name;
            t0_us_ = s->trace.nowUs();
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (!s_)
            return;
        TraceEvent ev;
        ev.ts_us = t0_us_;
        ev.dur_us = s_->trace.nowUs() - t0_us_;
        ev.ph = 'X';
        ev.cat = cat_;
        ev.name = std::move(name_);
        if (!args_.empty()) {
            args_ += '}';
            ev.args = std::move(args_);
        }
        s_->trace.record(std::move(ev));
        s_->metrics.observe(std::string(cat_) + ".wall_us", ev.dur_us);
    }

    /** True when this span will emit (session active at construction). */
    bool armed() const { return s_ != nullptr; }

    void
    arg(std::string_view key, std::uint64_t v)
    {
        if (s_)
            rawArg(key, std::to_string(v));
    }

    void
    arg(std::string_view key, double v);

    void
    arg(std::string_view key, std::string_view v);

  private:
    void rawArg(std::string_view key, std::string_view rendered);

    Session *s_ = nullptr;
    const char *cat_ = "";
    double t0_us_ = 0.0;
    std::string name_;
    std::string args_;  ///< accumulating "{"k": v, ..." (no closing brace)
};

/** Emit an instant event (a point marker on the timeline). */
inline void
instant(const char *cat, std::string_view name, std::string args = {})
{
    if (Session *s = Session::current()) {
        TraceEvent ev;
        ev.ts_us = s->trace.nowUs();
        ev.ph = 'i';
        ev.cat = cat;
        ev.name = std::string(name);
        ev.args = std::move(args);
        s->trace.record(std::move(ev));
    }
}

} // namespace gpm::telemetry
