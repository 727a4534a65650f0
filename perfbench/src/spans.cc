#include "spans.h"

#include <algorithm>
#include <stdexcept>

#include "scenario/json.h"

namespace perfbench {

double CoveredSeconds(double start, double end,
                      std::vector<std::pair<double, double>> intervals) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, start);
    iv.second = std::min(iv.second, end);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = start;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = Now();
  const int id = Add(std::move(name), parent, now, now);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog::End: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_s = Now();
}

int SpanLog::Add(std::string name, int parent, double start_s, double end_s) {
  spans_.push_back(Span{std::move(name), parent, start_s, end_s});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] = s.duration() -
              CoveredSeconds(s.start_s, s.end_s, std::move(children[i]));
  }
  return self;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

std::string SpanLog::ToJsonLines() const {
  using hpcc::scenario::Json;
  const std::vector<double> self = SelfTimes();
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Json j = Json::MakeObject();
    j.Set("name", Json::MakeString(spans_[i].name));
    j.Set("parent", Json::MakeNumber(spans_[i].parent));
    j.Set("start_s", Json::MakeNumber(spans_[i].start_s));
    j.Set("end_s", Json::MakeNumber(spans_[i].end_s));
    j.Set("self_s", Json::MakeNumber(self[i]));
    out += j.Dump() + "\n";
  }
  return out;
}

}  // namespace perfbench
