// The four workloads of the live benchmark and what a run reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pb {

/// The emulated fleet: 3 workers plus 1 master (or service) thread,
/// whatever the host's core count, so numbers compare across boxes.
inline constexpr int kWorkers = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "", "column" (corrupt one column on its way to the master) or
  /// "chunk" (count one executed chunk twice): proves that the checks
  /// turn a wrong output into a failed run.
  std::string inject;
  std::string out_dir = ".bench_out";
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
  std::vector<double> setup_s;        ///< one per set-up
  /// Untraced timed operations: loop_ms is the loop as the runtime
  /// runs it, job_ms the operation as its caller waits for it.
  std::vector<double> loop_ms;
  std::vector<double> job_ms;
  double jobs_per_s = 0.0;
  /// Traced operations of the traced binary (for the overhead).
  std::vector<double> traced_ms;
  /// Per-layer samples, one per traced operation (or a single value).
  std::map<std::string, std::vector<double>> layer;
  std::string isa = "none";
  bool seed_used = true;
  /// Threads of the first traced operation, for the Chrome trace.
  std::vector<std::unique_ptr<ThreadTrace>> kept;

  void fail(const std::string& why);
  void add(const std::string& metric, double v) { layer[metric].push_back(v); }
};

Report run_paper_live(const Options& o);
Report run_fine_grain(const Options& o, bool masterless);
Report run_service_mix(const Options& o);

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q);

}  // namespace pb
