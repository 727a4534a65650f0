// Runner self-profiling (wall-clock phase timers, page-fault counts) and
// live sweep progress.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace hpcc::obs {

// Wall-clock phase timers for one run. Engine- and machine-dependent, so
// they only ever appear in the manifest's opt-in "profile" section, never
// in the deterministic default output.
struct PhaseTimers {
  double build_s = 0;      // Experiment construction: topology + host wiring
  double routes_s = 0;     // route (re)computation, included in build/run
  double run_s = 0;        // event loop, including the drain window
  double aggregate_s = 0;  // metric collection + telemetry file writes
  // Minor page faults (first touches of fresh memory) taken by the thread
  // that ran the phase. Per thread, so concurrent sweep workers do not mix
  // counts; at shards > 1 the run phase counts lane 0 only, because lanes
  // 1..N-1 run on threads of their own.
  uint64_t build_minor_faults = 0;
  uint64_t run_minor_faults = 0;
};

// Minor page faults the calling thread has taken so far (Linux
// getrusage(RUSAGE_THREAD); 0 if the call fails).
uint64_t ThreadMinorFaults();

// RAII stopwatch accumulating elapsed wall seconds into a slot and,
// optionally, the calling thread's minor page faults into another.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* slot, uint64_t* minor_faults = nullptr)
      : slot_(slot),
        faults_slot_(minor_faults),
        faults_start_(minor_faults != nullptr ? ThreadMinorFaults() : 0),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    *slot_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    if (faults_slot_ != nullptr) {
      *faults_slot_ += ThreadMinorFaults() - faults_start_;
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* slot_;
  uint64_t* faults_slot_;
  uint64_t faults_start_;
  std::chrono::steady_clock::time_point start_;
};

// A single `\r`-rewritten stderr line for sweeps: jobs done/total, aggregate
// event rate, simulated-time rate and ETA. Thread-safe — sweep workers call
// JobDone concurrently.
class ProgressMeter {
 public:
  explicit ProgressMeter(size_t total_jobs);

  // Records one finished job and repaints the line.
  void JobDone(uint64_t events_executed, double sim_time_ms);
  // Final repaint plus newline; the meter goes quiet afterwards.
  void Finish();

 private:
  void Paint(bool final_line);  // caller holds mu_

  std::mutex mu_;
  size_t total_;
  size_t done_ = 0;
  uint64_t events_ = 0;
  double sim_ms_ = 0;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hpcc::obs
