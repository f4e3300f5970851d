#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "decorators.hpp"
#include "lss/api/scheduler.hpp"
#include "lss/cluster/acp.hpp"
#include "lss/cluster/load.hpp"
#include "lss/mp/buffer_pool.hpp"
#include "lss/mp/comm.hpp"
#include "lss/mp/shm_transport.hpp"
#include "lss/mp/tcp.hpp"
#include "lss/rt/counter.hpp"
#include "lss/rt/master.hpp"
#include "lss/rt/worker.hpp"
#include "lss/support/prng.hpp"
#include "lss/svc/client.hpp"
#include "lss/svc/service.hpp"
#include "lss/workload/mandelbrot.hpp"
#include "lss/workload/sampling.hpp"
#include "lss/workload/spec.hpp"

namespace pb {

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

using lss::Index;
using lss::Range;

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ------------------------------------------------------- the loops

/// The paper's S_f reordering with the real kernel: iteration k runs
/// column perm[k] of the Mandelbrot image. lss::sampled() is not used
/// because its PermutedWorkload::execute falls back to the base
/// class's cost spin and never runs the kernel (see NOTES.md).
class SampledMandelbrot final : public lss::Workload {
 public:
  SampledMandelbrot(std::shared_ptr<lss::MandelbrotWorkload> base,
                    Index sampling_frequency)
      : base_(std::move(base)),
        perm_(lss::sampling_permutation(base_->size(), sampling_frequency)) {}

  std::string name() const override { return base_->name() + "+sampled"; }
  Index size() const override { return base_->size(); }
  double cost(Index k) const override { return base_->cost(column(k)); }
  void execute(Index k) override { base_->execute(column(k)); }

  Index column(Index k) const { return perm_[static_cast<std::size_t>(k)]; }
  const lss::MandelbrotWorkload& base() const { return *base_; }

 private:
  std::shared_ptr<lss::MandelbrotWorkload> base_;
  std::vector<Index> perm_;
};

/// One emulated PE: relative speed and external CPU-bound processes
/// running on it from t = 0 (the paper's non-dedicated mode).
struct Pe {
  double speed = 1.0;
  int external = 0;
};

struct LoopShape {
  bool shm = false;
  bool masterless = false;
  std::string scheme;
  std::vector<Pe> pes;
};

/// Everything a loop needs that outlives one loop.
struct LoopEnv {
  LoopShape shape;
  std::shared_ptr<lss::Workload> workload;
  /// paper_live only: columns ship home and are assembled here.
  std::shared_ptr<SampledMandelbrot> image_src;
  std::vector<std::uint16_t> master_image;
  std::vector<std::uint16_t> reference;
  int height = 0;

  bool distributed() const {
    return lss::scheme_family(shape.scheme) == lss::SchemeFamily::Distributed;
  }
  double acp(std::size_t i) const {
    if (!distributed()) return 1.0;
    double vmin = std::numeric_limits<double>::infinity();
    for (const Pe& p : shape.pes) vmin = std::min(vmin, p.speed);
    return lss::cluster::compute_acp(shape.pes[i].speed / vmin,
                                     1 + shape.pes[i].external,
                                     lss::cluster::AcpPolicy::improved());
  }
};

struct LoopRun {
  double ms = 0.0;
  lss::rt::MasterOutcome outcome;
  std::vector<lss::rt::WorkerLoopResult> workers;  ///< by worker thread
  std::vector<std::string> errors;                 ///< master + workers
  std::string result_error;
  /// [0] master, [1 + i] worker thread i; empty when untraced.
  std::vector<std::unique_ptr<ThreadTrace>> traces;
};

std::string segment_name(const char* what, std::int64_t op) {
  return std::string("/perfbench-") + what + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(op);
}

void worker_body(const LoopEnv& env, std::size_t i, std::int64_t op,
                 bool traced, std::uint16_t port, const std::string& ring,
                 const std::string& ctr,
                 const std::shared_ptr<lss::Workload>& workload, LoopRun& run) {
  namespace mp = lss::mp;
  namespace rt = lss::rt;
  const LoopShape& shape = env.shape;
  if (traced)
    run.traces[1 + i] =
        std::make_unique<ThreadTrace>("worker-" + std::to_string(i), op);
  ThreadTrace* trace = traced ? run.traces[1 + i].get() : nullptr;
  ThreadTrace::Install install(trace);
  try {
    Scope life(Name::WorkerThread);
    std::unique_ptr<mp::Transport> endpoint;
    int rank = 0;
    std::shared_ptr<rt::TicketCounter> counter;
    {
      Scope connect(Name::Connect);
      if (shape.shm) {
        auto t = std::make_unique<mp::ShmWorkerTransport>(ring);
        rank = t->rank();
        endpoint = std::move(t);
      } else {
        auto t = std::make_unique<mp::TcpWorkerTransport>("127.0.0.1", port);
        rank = t->rank();
        endpoint = std::move(t);
      }
      if (shape.masterless) counter = rt::ShmTicketCounter::attach(ctr);
    }
    std::unique_ptr<TracedTransport> traced_endpoint;
    if (traced) {
      traced_endpoint = std::make_unique<TracedTransport>(*endpoint, Role::Worker);
      if (counter) counter = std::make_shared<TracedCounter>(counter);
    }
    mp::Transport& t = traced ? *traced_endpoint : *endpoint;

    const Pe& pe = shape.pes[i];
    rt::WorkerLoopConfig wc;
    wc.worker = rank - 1;
    wc.acp = env.acp(i);
    wc.relative_speed = pe.speed;
    if (pe.external > 0)
      wc.load = lss::cluster::LoadScript::constant(pe.external);
    wc.workload = workload;
    // pipeline_depth keeps its default of 1, lss_master's default too.
    if (env.image_src)
      wc.result_into = [&env](Range chunk, mp::PayloadWriter& out) {
        Scope s(Name::ResultWrite);
        const std::vector<std::uint16_t>& img = env.image_src->base().image();
        const auto h = static_cast<std::size_t>(env.height);
        for (Index k = chunk.begin; k < chunk.end; ++k)
          out.put_raw(img.data() + static_cast<std::size_t>(env.image_src->column(k)) * h,
                      h * sizeof(std::uint16_t));
      };

    Scope work(Name::RtWorker);
    if (shape.masterless) {
      rt::MasterlessWorkerConfig mwc;
      mwc.loop = wc;
      mwc.scheduler = shape.scheme;
      mwc.total = workload->size();
      mwc.num_workers = kWorkers;
      mwc.counter = counter;
      run.workers[i] = rt::run_masterless_worker(t, mwc);
    } else {
      run.workers[i] = rt::run_worker_loop(t, wc);
    }
  } catch (const std::exception& e) {
    run.errors[1 + i] = std::string("worker: ") + e.what();
  }
  if (trace != nullptr) trace->retire();
}

/// One closed-loop operation: fleet bring-up, the loop, last join.
LoopRun run_loop(LoopEnv& env, std::int64_t op, bool traced, bool corrupt) {
  namespace mp = lss::mp;
  namespace rt = lss::rt;
  const LoopShape& shape = env.shape;
  LoopRun run;
  run.workers.resize(kWorkers);
  run.errors.resize(1 + kWorkers);
  if (traced) {
    run.traces.resize(1 + kWorkers);
    run.traces[0] = std::make_unique<ThreadTrace>("master", op);
  }
  ThreadTrace::Install install(traced ? run.traces[0].get() : nullptr);
  const std::shared_ptr<lss::Workload> workload =
      traced ? std::make_shared<TracedWorkload>(env.workload) : env.workload;
  const std::string ring = segment_name("ring", op);
  const std::string ctr = segment_name("ctr", op);

  // Declared outside the loop span so that tearing the endpoint down
  // is not timed: the loop ends at the last join.
  std::unique_ptr<mp::Transport> master;
  const std::int64_t t0 = now_ns();
  {
    Scope loop(Name::Loop);
    std::function<void()> accept;
    std::uint16_t port = 0;
    std::shared_ptr<rt::TicketCounter> counter;
    {
      Scope connect(Name::Connect);
      if (shape.shm) {
        auto t = std::make_unique<mp::ShmMasterTransport>(ring, kWorkers);
        accept = [raw = t.get()] { raw->accept_workers(); };
        master = std::move(t);
      } else {
        auto t = std::make_unique<mp::TcpMasterTransport>(0, kWorkers);
        port = t->port();
        accept = [raw = t.get()] { raw->accept_workers(); };
        master = std::move(t);
      }
      if (shape.masterless) counter = rt::ShmTicketCounter::create(ctr);
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kWorkers); ++i)
      threads.emplace_back([&, i] {
        worker_body(env, i, op, traced, port, ring, ctr, workload, run);
      });
    try {
      {
        Scope connect(Name::Connect);
        accept();
      }
      std::unique_ptr<TracedTransport> traced_master;
      if (traced) traced_master = std::make_unique<TracedTransport>(*master, Role::Master);
      mp::Transport& t = traced ? *traced_master : *master;
      rt::MasterConfig mc;
      mc.scheduler = shape.scheme;
      mc.total = env.workload->size();
      mc.num_workers = kWorkers;
      // As lss_master runs it: a dead worker is detected, not waited on.
      mc.faults.detect = true;
      mc.faults.grace = 10.0;
      mc.masterless = shape.masterless;
      mc.counter = counter;
      if (env.image_src)
        mc.on_result = [&env, &run, corrupt](int, Range chunk,
                                             std::span<const std::byte> blob) {
          Scope s(Name::ResultApply);
          const auto h = static_cast<std::size_t>(env.height);
          const std::size_t col_bytes = h * sizeof(std::uint16_t);
          if (blob.size() != static_cast<std::size_t>(chunk.size()) * col_bytes) {
            run.result_error = "result blob of chunk [" + std::to_string(chunk.begin) +
                               "," + std::to_string(chunk.end) + ") has the wrong size";
            return;
          }
          for (Index k = chunk.begin; k < chunk.end; ++k) {
            std::uint16_t* col =
                env.master_image.data() +
                static_cast<std::size_t>(env.image_src->column(k)) * h;
            std::memcpy(col, blob.data() + static_cast<std::size_t>(k - chunk.begin) * col_bytes,
                        col_bytes);
            if (corrupt && k == 0) col[h / 2] ^= 1;  // injected fault
          }
        };
      Scope work(Name::RtMaster);
      run.outcome = rt::run_master(t, mc);
    } catch (const std::exception& e) {
      run.errors[0] = std::string("master: ") + e.what();
      master.reset();  // wakes the workers so that they can be joined
    }
    {
      Scope join(Name::Join);
      for (std::thread& th : threads) th.join();
    }
    run.ms = ms_since(t0);
  }
  if (traced) run.traces[0]->retire();
  return run;
}

std::string check_loop(const LoopEnv& env, const LoopRun& run, bool double_count) {
  for (const std::string& e : run.errors)
    if (!e.empty()) return e;
  if (!run.result_error.empty()) return run.result_error;
  const Index n = env.workload->size();
  std::string why = outcome_error(run.outcome, n);
  if (!why.empty()) return why;
  std::vector<Range> executed;
  for (const lss::rt::WorkerLoopResult& w : run.workers) {
    if (w.died) return "a worker died";
    executed.insert(executed.end(), w.executed.begin(), w.executed.end());
  }
  if (double_count && !executed.empty()) executed.push_back(executed.front());
  why = coverage_error(executed, n);
  if (!why.empty()) return "worker-side coverage: " + why;
  if (env.image_src) return image_error(env.master_image, env.reference);
  return {};
}

/// Per-layer numbers of one traced loop.
void analyze_loop(const LoopEnv& env, const LoopRun& run, Report& r) {
  const ThreadTrace& m = *run.traces[0];
  Index chunks = 0;
  for (const Index c : run.outcome.chunks_per_worker) chunks += c;
  const double per_chunk = chunks > 0 ? 1.0 / static_cast<double>(chunks) : 0.0;

  Totals exec, wsend, wrecv, widle;
  double rt_allocs = static_cast<double>(m.rt_allocs());
  double worker_self = 0.0;
  double throttle = 0.0;
  double max_err = self_sum_error(m);
  std::int64_t first_end = std::numeric_limits<std::int64_t>::max(), last_end = 0;
  std::vector<double> gaps_us, claims_ns;
  std::size_t spans = m.spans().size();
  for (std::size_t i = 0; i < static_cast<std::size_t>(kWorkers); ++i) {
    const ThreadTrace& w = *run.traces[1 + i];
    const auto add = [](Totals& a, const Totals& b) {
      a.calls += b.calls;
      a.ns += b.ns;
      a.bytes += b.bytes;
    };
    add(exec, w.totals(Name::Execute));
    add(wsend, w.totals(Name::WorkerSend));
    add(wrecv, w.totals(Name::WorkerRecv));
    add(widle, w.totals(Name::WorkerIdlePoll));
    rt_allocs += static_cast<double>(w.rt_allocs());
    worker_self += ns_to_ms(self_ns(w)[static_cast<std::size_t>(Name::RtWorker)]);
    max_err = std::max(max_err, self_sum_error(w));
    spans += w.spans().size();
    std::int64_t compute_end = 0;  // when this PE finished its last chunk
    for (const Span& s : w.spans()) {
      if (s.name == Name::Execute) compute_end = std::max(compute_end, s.t1);
      if (s.name == Name::Claim) claims_ns.push_back(static_cast<double>(s.t1 - s.t0));
    }
    if (compute_end > 0) {
      first_end = std::min(first_end, compute_end);
      last_end = std::max(last_end, compute_end);
    }
    const lss::rt::WorkerLoopResult& res = run.workers[i];
    for (const double g : res.idle_gaps) gaps_us.push_back(g * 1e6);

    // The paper's per-PE breakdown, measured at the layer boundaries:
    // computing, exchanging (sends, polls that found work, result
    // serialization, ticket claims) and waiting on the master.
    const std::string pe = "rt.pe" + std::to_string(i) + ".";
    const double comp = ns_to_ms(w.totals(Name::Execute).ns);
    r.add(pe + "t_comp_ms", comp);
    r.add(pe + "t_com_ms",
          ns_to_ms(w.totals(Name::WorkerSend).ns + w.totals(Name::WorkerPoll).ns +
                   w.totals(Name::ResultWrite).ns + w.totals(Name::Claim).ns));
    r.add(pe + "t_wait_ms",
          ns_to_ms(w.totals(Name::WorkerRecv).ns + w.totals(Name::WorkerIdlePoll).ns));
    r.add(pe + "rt_t_comp_ms", res.times.t_comp * 1e3);
    throttle += res.times.t_comp * 1e3 - comp;
  }

  r.add("workload.execute_calls", static_cast<double>(exec.calls));
  r.add("workload.busy_ms", ns_to_ms(exec.ns));
  if (env.image_src && exec.calls > 0)
    r.add("workload.ns_per_pixel", static_cast<double>(exec.ns) /
                                       (static_cast<double>(exec.calls) * env.height));

  const Totals& msend = m.totals(Name::MasterSend);
  r.add("mp.connect_ms", ns_to_ms(m.totals(Name::Connect).ns));
  r.add("mp.master.send_calls", static_cast<double>(msend.calls));
  r.add("mp.master.send_bytes", static_cast<double>(msend.bytes));
  r.add("mp.master.send_busy_ms", ns_to_ms(msend.ns));
  r.add("mp.master.recv_wait_ms", ns_to_ms(m.totals(Name::MasterRecv).ns +
                                           m.totals(Name::MasterIdlePoll).ns));
  r.add("mp.worker.send_calls", static_cast<double>(wsend.calls));
  r.add("mp.worker.send_bytes", static_cast<double>(wsend.bytes));
  r.add("mp.worker.send_busy_ms", ns_to_ms(wsend.ns));
  r.add("mp.worker.recv_wait_ms", ns_to_ms(wrecv.ns + widle.ns));
  r.add("mp.msgs_per_chunk", static_cast<double>(msend.calls + wsend.calls) * per_chunk);
  r.add("mp.heap_allocs_per_chunk", rt_allocs * per_chunk);
  r.add("mp.pool_parked", static_cast<double>(lss::mp::BufferPool::global().parked()));

  r.add("rt.chunks", static_cast<double>(chunks));
  r.add("rt.master_messages", static_cast<double>(run.outcome.messages));
  r.add("rt.master_self_ms", ns_to_ms(self_ns(m)[static_cast<std::size_t>(Name::RtMaster)]));
  r.add("rt.worker_self_ms", worker_self);
  r.add("rt.idle_gap_us_p50", quantile(gaps_us, 0.5));
  r.add("rt.idle_gap_us_p90", quantile(gaps_us, 0.9));
  r.add("rt.finish_spread_ms", last_end > 0 ? ns_to_ms(last_end - first_end) : 0.0);
  r.add("rt.throttle_ms", throttle);
  r.add("rt.reassigned_chunks", static_cast<double>(run.outcome.reassigned_chunks));
  r.add("rt.counter.claims", static_cast<double>(claims_ns.size()));
  r.add("rt.counter.claim_ns_p50", quantile(claims_ns, 0.5));
  r.add("distsched.replans", static_cast<double>(run.outcome.replans));
  r.add("trace.self_sum_err_pct", max_err * 100.0);
  r.add("trace.spans", static_cast<double>(spans));
}

/// Plain single-thread run of the whole loop, `reps` times, against
/// the untraced loops of this run.
void serial_runs(lss::Workload& w, int reps, Report& r) {
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t t0 = now_ns();
    for (Index i = 0; i < w.size(); ++i) w.execute(i);
    r.add("workload.serial_ms", ms_since(t0));
  }
  const double loop_ms = quantile(r.loop_ms, 0.5);
  if (loop_ms > 0.0)
    r.add("rt.speedup_vs_serial", quantile(r.layer["workload.serial_ms"], 0.5) / loop_ms);
}

/// Drives the scheme's scheduler over the loop offline, PEs asking in
/// turn: the grant count for that order (exact) and the cost of one
/// decision.
void sched_offline(const std::string& scheme, Index n, const std::vector<double>& acps,
                   Report& r) {
  const int p = static_cast<int>(acps.size());
  for (int rep = 0; rep < 5; ++rep) {
    lss::Scheduler s = lss::make_scheduler(scheme, n, p);
    s.initialize(acps);
    Index grants = 0;
    const std::int64_t t0 = now_ns();
    for (int pe = 0; !s.done() && grants <= n; pe = (pe + 1) % p)
      if (s.next(pe, acps[static_cast<std::size_t>(pe)]).size() > 0) ++grants;
    const double ns = static_cast<double>(now_ns() - t0);
    r.add("sched.grants", static_cast<double>(grants));
    r.add("sched.decide_ns", grants > 0 ? ns / static_cast<double>(grants) : 0.0);
  }
}

/// Runs loops back to back for the run's seconds. In the traced
/// binary every second loop is traced, so traced and untraced loops
/// interleave and their difference is the tracing overhead.
void measure_loops(LoopEnv& env, const Options& o, Report& r) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::int64_t op = 1; now_ns() < deadline; ++op) {
    const bool traced = o.trace && op % 2 == 0;
    const std::string inject = op == 1 ? o.inject : "";
    if (env.image_src) std::fill(env.master_image.begin(), env.master_image.end(), 0);
    LoopRun run = run_loop(env, op, traced, inject == "column");
    ++r.attempted;
    const std::string why = check_loop(env, run, inject == "chunk");
    if (!why.empty()) {
      r.fail("loop " + std::to_string(op) + ": " + why);
      continue;
    }
    (traced ? r.traced_ms : r.loop_ms).push_back(run.ms);
    if (!traced) continue;
    analyze_loop(env, run, r);
    if (r.kept.empty()) r.kept = std::move(run.traces);
  }
  r.job_ms = r.loop_ms;  // one loop is the whole job of a loop workload
  double total_ms = 0.0;
  for (const double ms : r.loop_ms) total_ms += ms;
  r.jobs_per_s = total_ms > 0.0 ? static_cast<double>(r.loop_ms.size()) * 1e3 / total_ms : 0.0;
}

/// Set-up as a user pays it, `reps` times: build the workload, then
/// one warm-up loop (lazy initialisation, first-touch pages). The
/// last set-up's workload is the one measured.
void set_up_loops(LoopEnv& env, int reps, const std::function<void()>& build,
                  const std::function<void()>& after_first_build, Report& r) {
  for (int rep = 0; rep < reps; ++rep) {
    std::int64_t t0 = now_ns();
    build();
    const double build_ms = ms_since(t0);
    r.add("workload.materialize_ms", build_ms);
    if (rep == 0) after_first_build();  // untimed
    t0 = now_ns();
    if (env.image_src) std::fill(env.master_image.begin(), env.master_image.end(), 0);
    LoopRun warm = run_loop(env, -1 - rep, false, false);
    const double warm_ms = ms_since(t0);
    ++r.attempted;
    const std::string why = check_loop(env, warm, false);
    if (!why.empty()) r.fail("warm-up loop: " + why);
    r.setup_s.push_back((build_ms + warm_ms) / 1e3);
  }
}

}  // namespace

Report run_paper_live(const Options& o) {
  Report r;
  r.seed_used = false;  // the paper's fixed problem
  LoopEnv env;
  // 1 fast and 2 slow PEs (the paper's 3:1 speed ratio); two external
  // CPU-bound processes on the fast PE and one slow PE from t = 0,
  // which DTSS's ACP sees as run queues of 3.
  env.shape = {.shm = true,
               .scheme = "dtss",
               .pes = {{1.0, 2}, {1.0 / 3.0, 2}, {1.0 / 3.0, 0}}};
  lss::MandelbrotParams params = lss::MandelbrotParams::paper(4000, 2000);
  params.kernel = lss::MandelbrotKernel::Auto;
  env.height = params.height;
  env.master_image.assign(static_cast<std::size_t>(params.width) * params.height, 0);
  set_up_loops(
      env, 3,
      [&] {
        env.image_src = nullptr;
        env.workload = nullptr;
        auto base = std::make_shared<lss::MandelbrotWorkload>(params);
        env.image_src = std::make_shared<SampledMandelbrot>(base, 4);
        env.workload = env.image_src;
      },
      [&] {
        // The reference, with the scalar kernel, point by point.
        const lss::MandelbrotWorkload& b = env.image_src->base();
        env.reference.resize(env.master_image.size());
        for (int c = 0; c < params.width; ++c)
          for (int y = 0; y < params.height; ++y)
            env.reference[static_cast<std::size_t>(c) * params.height + y] =
                static_cast<std::uint16_t>(b.pixel(c, y));
      },
      r);
  const lss::MandelbrotWorkload& base = env.image_src->base();
  r.isa = lss::to_string(base.params().kernel);
  measure_loops(env, o, r);
  if (o.trace) {
    serial_runs(*env.workload, 3, r);
    r.add("workload.escape_iters", lss::total_cost(base));
    std::vector<double> acps;
    for (std::size_t i = 0; i < env.shape.pes.size(); ++i) acps.push_back(env.acp(i));
    sched_offline(env.shape.scheme, env.workload->size(), acps, r);
  }
  return r;
}

Report run_fine_grain(const Options& o, bool masterless) {
  Report r;
  LoopEnv env;
  // Self-scheduling one iteration per chunk, 3 full-speed workers,
  // pipeline depth 1, no results: the control path is the work.
  env.shape = {.shm = masterless,
               .masterless = masterless,
               .scheme = "ss",
               .pes = {{1.0, 0}, {1.0, 0}, {1.0, 0}}};
  const std::string spec = "irregular:n=20000,mu=4.6,sigma=0.5,seed=" +
                           std::to_string(o.seed % 1000000007);
  set_up_loops(
      env, 5, [&] { env.workload = lss::make_workload(spec); }, [] {}, r);
  measure_loops(env, o, r);
  if (o.trace) {
    serial_runs(*env.workload, 5, r);
    sched_offline(env.shape.scheme, env.workload->size(), {1.0, 1.0, 1.0}, r);
  }
  return r;
}

// ------------------------------------------------------ the service

namespace {

struct MixJob {
  lss::rt::JobSpec spec;
  Index width = 0;
};

MixJob mix_job(const char* scheme, int width, int height, int max_iter) {
  MixJob m;
  m.width = width;
  m.spec.scheduler = scheme;
  m.spec.relative_speeds = {1.0, 1.0};  // planned for the 2-worker pool
  m.spec.workload = "mandelbrot:width=" + std::to_string(width) +
                    ",height=" + std::to_string(height) +
                    ",max_iter=" + std::to_string(max_iter) + ",kernel=auto";
  return m;
}

const char* const kMixSchemes[] = {"ss", "css:k=4", "gss", "tss", "fss", "fiss", "tfss"};

/// Every combination of the paper's simple schemes and 24 small
/// Mandelbrot shapes.
std::vector<MixJob> make_mix() {
  std::vector<MixJob> mix;
  for (const char* scheme : kMixSchemes)
    for (const int width : {96, 128, 160, 192})
      for (const int height : {48, 64, 96})
        for (const int max_iter : {64, 100})
          mix.push_back(mix_job(scheme, width, height, max_iter));
  return mix;
}

/// The job sequence: passes over the whole mix, each in a fresh seeded
/// order. Every pass submits the same work, so the seed moves which
/// jobs share the pool, not how much work there is; reshuffling every
/// pass averages the order out within a run.
class MixStream {
 public:
  MixStream(std::size_t size, std::uint64_t seed) : order_(size), rng_(seed) {
    for (std::size_t i = 0; i < size; ++i) order_[i] = i;
  }
  std::size_t next() {
    if (pos_ == 0)
      for (std::size_t i = order_.size() - 1; i > 0; --i)
        std::swap(order_[i], order_[rng_.next() % (i + 1)]);
    const std::size_t k = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return k;
  }

 private:
  std::vector<std::size_t> order_;
  lss::SplitMix64 rng_;
  std::size_t pos_ = 0;
};

/// The service thread and its tenant-facing transport. The service
/// runs until its one tenant says bye.
class RunningService {
 public:
  explicit RunningService(const lss::svc::ServiceConfig& config) : service_(config) {
    thread_ = std::thread([this] {
      try {
        stats_ = service_.run(comm_, 1);
      } catch (const std::exception& e) {
        error_ = std::string("service: ") + e.what();
      }
    });
  }
  ~RunningService() {
    if (thread_.joinable()) thread_.join();
  }
  RunningService(const RunningService&) = delete;
  RunningService& operator=(const RunningService&) = delete;

  lss::mp::Transport& tenants() { return comm_; }
  /// Joins the service thread; call after the tenant's bye().
  void join() { thread_.join(); }
  const lss::svc::ServiceStats& stats() const { return stats_; }
  const std::string& error() const { return error_; }

 private:
  lss::mp::Comm comm_{2};
  lss::svc::Service service_;
  lss::svc::ServiceStats stats_;
  std::string error_;
  std::thread thread_;  // last: starts after everything it uses
};

constexpr std::size_t kOutstanding = 4;
/// Jobs per service session. The service keeps every finished job's
/// state until it exits (NOTES.md), so a session of fixed length keeps
/// peak_rss_mb independent of throughput and run length.
constexpr std::size_t kSessionJobs = 2048;

/// One tenant's closed loop against one running service: keeps
/// kOutstanding jobs in flight, submitting up to `limit` jobs of
/// `jobs` in the order `pick` gives until `deadline`, then drains.
class Tenant {
 public:
  Tenant(lss::svc::Client& c, const std::vector<MixJob>& jobs, Report& r)
      : c_(c), jobs_(jobs), r_(r) {}

  /// `on_done(job, result, latency_ms, traced)` sees every checked-good
  /// result; `traced()` says whether a job submitted now is traced.
  template <typename Done, typename Traced>
  void run(const std::function<std::size_t()>& pick, std::size_t limit,
           std::int64_t deadline, Done on_done, Traced traced) {
    std::size_t submitted = 0;
    for (;;) {
      if (now_ns() < deadline)
        while (pending_.size() < kOutstanding && submitted < limit) {
          submit(pick(), traced());
          ++submitted;
        }
      if (pending_.empty()) return;
      const Pending p = pending_.front();
      pending_.pop_front();
      lss::svc::JobResultMsg res;
      {
        Scope s(Name::Await);
        s.op(p.id);
        res = c_.await_result(p.id);
      }
      const double ms = ms_since(p.t_submit);
      const std::string why = job_error(res, jobs_[p.job].width);
      if (!why.empty()) {
        r_.fail(why);
        continue;
      }
      on_done(p, res, ms);
    }
  }

  struct Pending {
    std::int64_t id = -1;
    std::int64_t t_submit = 0;
    std::size_t job = 0;
    bool traced = false;
  };

 private:
  void submit(std::size_t k, bool traced) {
    const std::int64_t t0 = now_ns();
    lss::svc::JobStatusMsg st;
    {
      Scope s(Name::Submit);
      st = c_.submit(jobs_[k].spec);
      s.op(st.job_id);
    }
    if (traced) r_.add("svc.submit_ms", ms_since(t0));
    ++r_.attempted;
    if (!st.ok()) {
      r_.fail("job rejected: " + st.message);
      return;
    }
    pending_.push_back({st.job_id, t0, k, traced});
  }

  lss::svc::Client& c_;
  const std::vector<MixJob>& jobs_;
  Report& r_;
  std::deque<Pending> pending_;
};

/// Says bye, joins the service, and checks its own account.
void stop_service(RunningService& s, lss::svc::Client& c, Report& r) {
  c.bye();
  s.join();
  if (!s.error().empty()) r.fail(s.error());
  const lss::svc::ServiceStats& stats = s.stats();
  if (stats.jobs_failed > 0 || stats.jobs_rejected > 0)
    r.fail("service reported " + std::to_string(stats.jobs_failed) + " failed and " +
           std::to_string(stats.jobs_rejected) + " rejected jobs");
}

}  // namespace

Report run_service_mix(const Options& o) {
  namespace svc = lss::svc;
  Report r;
  const std::vector<MixJob> mix = make_mix();
  MixStream stream(mix.size(), o.seed);
  svc::ServiceConfig sc;
  sc.num_workers = 2;

  // Set-up, five times: start the service and run a fixed warm-up set
  // (one mid-size job per scheme, the same for every seed) through it.
  std::vector<MixJob> warm;
  for (const char* scheme : kMixSchemes) warm.push_back(mix_job(scheme, 128, 64, 100));
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    RunningService s(sc);
    svc::Client c(s.tenants(), 1);
    Tenant tenant(c, warm, r);
    std::size_t next = 0;
    tenant.run([&next] { return next++; }, warm.size(), std::numeric_limits<std::int64_t>::max(),
               [](const Tenant::Pending&, const svc::JobResultMsg&, double) {},
               [] { return false; });
    r.setup_s.push_back(ms_since(t0) / 1e3);
    stop_service(s, c, r);
  }

  // Closed loop in sessions of kSessionJobs. In the traced binary,
  // traced and untraced one-second phases alternate.
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::int64_t phase = -1;
  std::unique_ptr<ThreadTrace> phase_trace;
  std::unique_ptr<ThreadTrace::Install> phase_install;
  std::unique_ptr<Scope> phase_scope;
  std::vector<std::unique_ptr<ThreadTrace>> tenant_traces;
  const auto end_phase = [&] {
    phase_scope.reset();
    phase_install.reset();
    if (phase_trace) {
      phase_trace->retire();
      tenant_traces.push_back(std::move(phase_trace));
    }
  };
  const auto traced_now = [&] {
    const std::int64_t now = now_ns();
    const std::int64_t ph = (now - start) / 1000000000;
    if (o.trace && now < deadline && ph != phase) {
      end_phase();
      phase = ph;
      if (ph % 2 == 1) {
        phase_trace = std::make_unique<ThreadTrace>("tenant", ph);
        phase_install = std::make_unique<ThreadTrace::Install>(phase_trace.get());
        phase_scope = std::make_unique<Scope>(Name::Tenant);
      }
    }
    return phase_trace != nullptr;
  };
  std::map<std::int64_t, double> latency_ms;  // this session's, by job id
  std::vector<double> run_ms, queue_ms;
  std::int64_t done = 0;
  std::int64_t last_result = start;
  while (now_ns() < deadline) {
    RunningService s(sc);
    svc::Client c(s.tenants(), 1);
    Tenant tenant(c, mix, r);
    latency_ms.clear();
    tenant.run(
        [&stream] { return stream.next(); }, kSessionJobs, deadline,
        [&](const Tenant::Pending& p, const svc::JobResultMsg& res, double ms) {
          ++done;
          last_result = now_ns();
          latency_ms[p.id] = ms;
          if (p.traced) {
            r.traced_ms.push_back(ms);
            r.add("rt.chunks", static_cast<double>(res.chunks));
            r.add("rt.reassigned_chunks", static_cast<double>(res.reassigned_chunks));
          } else {
            r.job_ms.push_back(ms);
            r.loop_ms.push_back(res.t_active * 1e3);
          }
        },
        traced_now);
    stop_service(s, c, r);
    for (const auto& [id, rs] : s.stats().per_job) {
      const auto it = latency_ms.find(id);
      if (it == latency_ms.end()) continue;
      run_ms.push_back(rs.t_wall * 1e3);
      queue_ms.push_back(it->second - rs.t_wall * 1e3);
    }
    r.add("svc.jobs_rejected", static_cast<double>(s.stats().jobs_rejected));
    r.add("svc.jobs_failed", static_cast<double>(s.stats().jobs_failed));
  }
  end_phase();
  r.jobs_per_s = last_result > start
                     ? static_cast<double>(done) * 1e9 / static_cast<double>(last_result - start)
                     : 0.0;

  lss::MandelbrotParams probe;
  probe.kernel = lss::MandelbrotKernel::Auto;
  probe.width = probe.height = 8;
  r.isa = lss::to_string(lss::MandelbrotWorkload(probe).params().kernel);
  if (!o.trace) return r;

  r.layer["svc.job_run_ms"] = run_ms;
  const double job_run_ms = quantile(run_ms, 0.5);
  r.layer["svc.job_queue_ms"] = queue_ms;
  double max_err = 0.0;
  std::size_t spans = 0;
  for (const auto& t : tenant_traces) {
    max_err = std::max(max_err, self_sum_error(*t));
    spans += t->spans().size();
  }
  if (!tenant_traces.empty()) r.kept.push_back(std::move(tenant_traces.front()));
  r.add("trace.self_sum_err_pct", max_err * 100.0);
  r.add("trace.spans", static_cast<double>(spans));

  // The mix's workloads outside the service: materialisation, a plain
  // serial run, exact escape counts and offline grants.
  for (const MixJob& m : mix) {
    const std::int64_t t0 = now_ns();
    const std::shared_ptr<lss::Workload> w = lss::make_workload(m.spec.workload);
    r.add("workload.materialize_ms", ms_since(t0));
    const std::int64_t t1 = now_ns();
    for (Index i = 0; i < w->size(); ++i) w->execute(i);
    const double serial_ms = ms_since(t1);
    r.add("workload.serial_ms", serial_ms);
    if (const auto* mw = dynamic_cast<const lss::MandelbrotWorkload*>(w.get())) {
      r.add("workload.escape_iters", lss::total_cost(*mw));
      r.add("workload.ns_per_pixel",
            serial_ms * 1e6 / (static_cast<double>(mw->params().width) * mw->params().height));
    }
    sched_offline(m.spec.scheduler.scheme, m.width, {1.0, 1.0}, r);
  }
  if (job_run_ms > 0.0)
    r.add("rt.speedup_vs_serial", quantile(r.layer["workload.serial_ms"], 0.5) / job_run_ms);
  return r;
}

}  // namespace pb
