// The live end-to-end benchmark (see ../NOTES.md).
//
//   perfbench_run    --workload W --seed N --seconds S [--inject column|chunk]
//   perfbench_traced --workload W --seed N --seconds S [--out-dir D]
//
// perfbench_run measures the end-to-end metrics with nothing
// decorated. perfbench_traced interleaves traced and untraced
// operations and reports the per-layer metrics, the tracing overhead,
// and writes a Chrome trace to D. Both print one JSON object as their
// last line and exit 1 when any output check failed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics in BENCHMARK.json order. A workload that does not
// exercise a layer reports 0 for it (NOTES.md lists which apply where).
const Metric kLayerMetrics[] = {
    {"workload.execute_calls", "count"},
    {"workload.busy_ms", "ms"},
    {"workload.ns_per_pixel", "ns"},
    {"workload.escape_iters", "count"},
    {"workload.serial_ms", "ms"},
    {"workload.materialize_ms", "ms"},
    {"mp.connect_ms", "ms"},
    {"mp.master.send_calls", "count"},
    {"mp.master.send_bytes", "bytes"},
    {"mp.master.send_busy_ms", "ms"},
    {"mp.master.recv_wait_ms", "ms"},
    {"mp.worker.send_calls", "count"},
    {"mp.worker.send_bytes", "bytes"},
    {"mp.worker.send_busy_ms", "ms"},
    {"mp.worker.recv_wait_ms", "ms"},
    {"mp.msgs_per_chunk", "count"},
    {"mp.heap_allocs_per_chunk", "count"},
    {"mp.pool_parked", "count"},
    {"rt.chunks", "count"},
    {"rt.master_messages", "count"},
    {"rt.master_self_ms", "ms"},
    {"rt.worker_self_ms", "ms"},
    {"rt.pe0.t_com_ms", "ms"},
    {"rt.pe0.t_wait_ms", "ms"},
    {"rt.pe0.t_comp_ms", "ms"},
    {"rt.pe0.rt_t_comp_ms", "ms"},
    {"rt.pe1.t_com_ms", "ms"},
    {"rt.pe1.t_wait_ms", "ms"},
    {"rt.pe1.t_comp_ms", "ms"},
    {"rt.pe1.rt_t_comp_ms", "ms"},
    {"rt.pe2.t_com_ms", "ms"},
    {"rt.pe2.t_wait_ms", "ms"},
    {"rt.pe2.t_comp_ms", "ms"},
    {"rt.pe2.rt_t_comp_ms", "ms"},
    {"rt.idle_gap_us_p50", "us"},
    {"rt.idle_gap_us_p90", "us"},
    {"rt.finish_spread_ms", "ms"},
    {"rt.throttle_ms", "ms"},
    {"rt.speedup_vs_serial", "x"},
    {"rt.reassigned_chunks", "count"},
    {"rt.counter.claims", "count"},
    {"rt.counter.claim_ns_p50", "ns"},
    {"sched.grants", "count"},
    {"sched.decide_ns", "ns"},
    {"distsched.replans", "count"},
    {"svc.submit_ms", "ms"},
    {"svc.job_run_ms", "ms"},
    {"svc.job_queue_ms", "ms"},
    {"svc.jobs_rejected", "count"},
    {"svc.jobs_failed", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.self_sum_err_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench_run --workload paper_live|fine_grain_tcp|"
               "fine_grain_masterless|service_mix --seed N --seconds S"
               " [--inject column|chunk] [--out-dir D] [--stamp JSON]\n";
  std::exit(2);
}

// Peak resident set of this program: VmHWM, not getrusage's
// ru_maxrss, which Linux carries across execve and so would report
// the launcher's (python's) high-water mark when ours is lower.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string stamp = "{}";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--inject") o.inject = v;
    else if (a == "--out-dir") o.out_dir = v;
    else if (a == "--stamp") stamp = v;
    else usage("unknown flag " + a);
  }
#if PERFBENCH_COUNT_ALLOCS
  o.trace = true;
#endif
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  if (!o.inject.empty() && o.inject != "column" && o.inject != "chunk")
    usage("--inject takes column or chunk");

  pb::Report r;
  try {
    if (o.workload == "paper_live") r = pb::run_paper_live(o);
    else if (o.workload == "fine_grain_tcp") r = pb::run_fine_grain(o, false);
    else if (o.workload == "fine_grain_masterless") r = pb::run_fine_grain(o, true);
    else if (o.workload == "service_mix") r = pb::run_service_mix(o);
    else usage("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  for (const std::string& f : r.failures) std::cerr << "FAILED: " << f << '\n';
  if (o.inject == "column" && o.workload != "paper_live")
    std::cerr << "note: --inject column applies to paper_live only\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  const auto put = [&](const std::string& name, double v, const std::string& unit) {
    out.push_back({name, {v, unit}});
  };
  const double untraced_p50 = pb::quantile(r.job_ms, 0.5);
  if (!o.trace) {
    put("setup_s", pb::quantile(r.setup_s, 0.5), "s");
    put("loop_ms_p50", pb::quantile(r.loop_ms, 0.5), "ms");
    put("loop_ms_p90", pb::quantile(r.loop_ms, 0.9), "ms");
    put("job_ms_p50", untraced_p50, "ms");
    put("job_ms_p90", pb::quantile(r.job_ms, 0.9), "ms");
    put("jobs_per_s", r.jobs_per_s, "1/s");
    put("ok_frac",
        r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted)
            : 0.0,
        "ratio");
    put("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double traced_p50 = pb::quantile(r.traced_ms, 0.5);
    r.add("trace.overhead_ms", traced_p50 - untraced_p50);
    r.add("trace.overhead_pct",
          untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0 : 0.0);
    for (const Metric& m : kLayerMetrics) {
      const auto it = r.layer.find(m.name);
      put(m.name, it == r.layer.end() ? 0.0 : pb::quantile(it->second, 0.5), m.unit);
    }
  }

  // Stamp: what produced these numbers, and how many samples each has.
  std::ostringstream meta;
  meta << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
       << ",\"seed_used\":" << (r.seed_used ? "true" : "false")
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"threads\":\"" << pb::kWorkers << " workers + 1 master or service\""
       << ",\"mandelbrot_isa\":\"" << r.isa << "\",\"traced\":" << (o.trace ? "true" : "false")
       << ",\"samples\":{\"setup\":" << r.setup_s.size() << ",\"loop\":" << r.loop_ms.size()
       << ",\"job\":" << r.job_ms.size() << ",\"traced\":" << r.traced_ms.size()
       << "},\"build\":" << stamp << "}";
  std::cout << "stamp " << meta.str() << '\n';
  for (const auto& [name, vu] : out)
    std::cout << "  " << name << " = " << fmt(vu.first) << ' ' << vu.second << '\n';

  if (o.trace && !r.kept.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    std::ofstream os(path);
    std::vector<const pb::ThreadTrace*> threads;
    for (const auto& t : r.kept) threads.push_back(t.get());
    pb::write_chrome_trace(os, threads, meta.str());
    std::cout << "chrome trace: " << path << '\n';
  }

  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << out[i].first << "\": {\"value\": "
              << fmt(out[i].second.first) << ", \"unit\": \"" << out[i].second.second << "\"}";
  std::cout << "}}" << std::endl;
  return r.failed == 0 ? 0 : 1;
}
