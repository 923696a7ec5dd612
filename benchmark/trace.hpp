// Bench-side span and counter recorder.
//
// The benchmark records spans around its own calls into the library, never
// inside it: a span is (name, start, duration, parent span, request id),
// where the request is the operation it belongs to (one construction, one
// service epoch, one engine round). Counters are recorded at the same
// boundaries. Everything stays in memory until WriteChromeJson exports the
// Chrome trace-event format (load the file in Perfetto or chrome://tracing).
//
// Two clocks are involved. Span timestamps use the *trace clock*: the steady
// clock minus every interval spent in Exclude() scopes. The benchmark puts
// bench-only work there (the token-walk replay that measures the token
// engine), so those intervals vanish from the operation's timeline instead
// of inflating whichever span happened to enclose them. Work measured inside
// an excluded interval is recorded with Record() on the side track.
//
// The untraced benchmark run constructs no Trace and makes no recorder
// calls; the traced run measures the recorder's own bookkeeping time
// (overhead_seconds) so its cost can be reported next to the layer shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoParent = -1;
  /// Track 0 is the caller's timeline; track 1 holds side measurements
  /// (replays) that are not children of the span they are attached to.
  static constexpr int kMainTrack = 0;
  static constexpr int kSideTrack = 1;

  struct Span {
    const char* name;
    std::uint64_t request;
    int parent;
    int track;
    double start_us;
    double dur_us;  ///< negative while the span is open
  };
  struct Counter {
    const char* name;
    std::uint64_t request;
    double ts_us;
    double value;
  };

  Trace() : origin_(Clock::now()) {}

  /// Trace-clock microseconds since construction (excluded time removed).
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
               .count() -
           excluded_us_;
  }

  /// Opens a span on the main track; returns its id for End().
  int Begin(const char* name, std::uint64_t request, int parent = kNoParent) {
    const auto t_in = Clock::now();
    spans_.push_back({name, request, parent, kMainTrack, NowUs(), -1.0});
    overhead_ += Clock::now() - t_in;
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    const auto t_in = Clock::now();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = NowUs() - s.start_us;
    overhead_ += Clock::now() - t_in;
  }

  /// Records an already-measured interval (a replay or a library-internal
  /// timer) as a closed span.
  int Record(const char* name, std::uint64_t request, int parent, int track,
             double start_us, double dur_us) {
    const auto t_in = Clock::now();
    spans_.push_back({name, request, parent, track, start_us, dur_us});
    overhead_ += Clock::now() - t_in;
    return static_cast<int>(spans_.size()) - 1;
  }

  void Count(const char* name, std::uint64_t request, double value) {
    const auto t_in = Clock::now();
    counters_.push_back({name, request, NowUs(), value});
    overhead_ += Clock::now() - t_in;
  }

  /// RAII scope whose wall time is removed from the trace clock.
  class Exclude {
   public:
    explicit Exclude(Trace& t) : t_(t), start_(Clock::now()) {}
    ~Exclude() {
      t_.excluded_us_ +=
          std::chrono::duration<double, std::micro>(Clock::now() - start_)
              .count();
    }
    Exclude(const Exclude&) = delete;
    Exclude& operator=(const Exclude&) = delete;

   private:
    Trace& t_;
    Clock::time_point start_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the main-track children recorded under it. The
  /// caller is single-threaded, so children never overlap each other.
  std::vector<double> SelfUs() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us;
    for (const Span& s : spans_) {
      if (s.parent != kNoParent && s.track == kMainTrack) {
        self[static_cast<std::size_t>(s.parent)] -= s.dur_us;
      }
    }
    return self;
  }

  double overhead_seconds() const {
    return std::chrono::duration<double>(overhead_).count();
  }

  /// Writes every span as a complete ("X") event and every counter as a
  /// "C" event. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = SelfUs();
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"caller\"}},\n"
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"side measurements\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu,\"self_us\":%.3f}}",
                   s.track, s.name, s.start_us, s.dur_us, i, s.parent,
                   static_cast<unsigned long long>(s.request), self[i]);
    }
    for (const Counter& c : counters_) {
      std::fprintf(f,
                   ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"%s\","
                   "\"ts\":%.3f,\"args\":{\"value\":%.17g,\"request\":%llu}}",
                   c.name, c.ts_us, c.value,
                   static_cast<unsigned long long>(c.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  /// RAII main-track span; a null recorder makes it a no-op, so one loop
  /// body serves the traced and the untraced run.
  class Scope {
   public:
    Scope(Trace* t, const char* name, std::uint64_t request,
          int parent = kNoParent)
        : t_(t), id_(t != nullptr ? t->Begin(name, request, parent) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Trace* t_;
    int id_;
  };

 private:
  Clock::time_point origin_;
  double excluded_us_ = 0.0;
  Clock::duration overhead_{};
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

}  // namespace bench
