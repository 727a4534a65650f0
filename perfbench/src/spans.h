// In-memory wall-clock spans recorded by the benchmark around its own calls
// into the simulator's layers. Spans nest: each one's parent is the innermost
// span open when it began. A span's self time is its duration minus the part
// of its interval that its direct children cover (overlapping children are
// merged, and children are clipped to the parent's interval).
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  // index into SpanLog::spans(), -1 = root
  double start_s = 0;
  double end_s = 0;

  double duration() const { return end_s - start_s; }
};

// Seconds of [start, end) covered by the union of `intervals` (each clipped to
// [start, end)). The self-time arithmetic, exposed for the unit tests.
double CoveredSeconds(double start, double end,
                      std::vector<std::pair<double, double>> intervals);

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span under the innermost open one; returns its index.
  int Begin(std::string name);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);
  // Adds an already-measured span (tests, and callers that time on their own).
  int Add(std::string name, int parent, double start_s, double end_s);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the time covered by direct children.
  std::vector<double> SelfTimes() const;
  // Sums over every span with this name.
  double TotalSeconds(const std::string& name) const;
  size_t Count(const std::string& name) const;
  std::vector<double> Durations(const std::string& name) const;

  // One JSON object per line: name, parent, start_s, end_s, self_s.
  std::string ToJsonLines() const;

  class Scope {
   public:
    Scope(SpanLog& log, std::string name)
        : log_(log), id_(log.Begin(std::move(name))) {}
    ~Scope() { log_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
