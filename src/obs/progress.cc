#include "obs/progress.h"

#include <sys/resource.h>

#include <cstdio>

namespace hpcc::obs {

uint64_t ThreadMinorFaults() {
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_minflt);
}

ProgressMeter::ProgressMeter(size_t total_jobs)
    : total_(total_jobs), start_(std::chrono::steady_clock::now()) {}

void ProgressMeter::JobDone(uint64_t events_executed, double sim_time_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  ++done_;
  events_ += events_executed;
  sim_ms_ += sim_time_ms;
  Paint(false);
}

void ProgressMeter::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  Paint(true);
}

void ProgressMeter::Paint(bool final_line) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const double safe = elapsed > 1e-9 ? elapsed : 1e-9;
  const double ev_per_s = static_cast<double>(events_) / safe;
  const double sim_ms_per_s = sim_ms_ / safe;
  char eta[32] = "--:--";
  if (done_ > 0 && done_ < total_) {
    const double remain = elapsed / static_cast<double>(done_) *
                          static_cast<double>(total_ - done_);
    std::snprintf(eta, sizeof(eta), "%d:%02d",
                  static_cast<int>(remain) / 60,
                  static_cast<int>(remain) % 60);
  }
  if (final_line) {
    std::fprintf(stderr,
                 "\r[progress] %zu/%zu jobs  %.2fM events/s  "
                 "%.3f sim-ms/s  %.1fs elapsed          \n",
                 done_, total_, ev_per_s / 1e6, sim_ms_per_s, elapsed);
  } else {
    std::fprintf(stderr,
                 "\r[progress] %zu/%zu jobs  %.2fM events/s  "
                 "%.3f sim-ms/s  ETA %s   ",
                 done_, total_, ev_per_s / 1e6, sim_ms_per_s, eta);
  }
  std::fflush(stderr);
}

}  // namespace hpcc::obs
