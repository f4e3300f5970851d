#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace pb {

#if !PERFBENCH_COUNT_ALLOCS
std::uint64_t thread_allocs() { return 0; }
#endif

namespace {

thread_local ThreadTrace* t_current = nullptr;

bool is_idle_poll(Name n) {
  return n == Name::MasterIdlePoll || n == Name::WorkerIdlePoll;
}

bool counts_rt_allocs(Name n) {
  return n == Name::RtMaster || n == Name::RtWorker;
}

}  // namespace

const char* to_string(Name n) {
  switch (n) {
    case Name::Loop: return "loop";
    case Name::WorkerThread: return "worker.thread";
    case Name::Connect: return "mp.connect";
    case Name::Join: return "rt.join";
    case Name::RtMaster: return "rt.master";
    case Name::RtWorker: return "rt.worker";
    case Name::MasterSend: return "mp.master.send";
    case Name::MasterRecv: return "mp.master.recv";
    case Name::MasterPoll: return "mp.master.poll";
    case Name::MasterIdlePoll: return "mp.master.idle_poll";
    case Name::WorkerSend: return "mp.worker.send";
    case Name::WorkerRecv: return "mp.worker.recv";
    case Name::WorkerPoll: return "mp.worker.poll";
    case Name::WorkerIdlePoll: return "mp.worker.idle_poll";
    case Name::Execute: return "workload.execute";
    case Name::ResultWrite: return "result.write";
    case Name::ResultApply: return "result.apply";
    case Name::Claim: return "rt.counter.claim";
    case Name::Tenant: return "svc.tenant";
    case Name::Submit: return "svc.submit";
    case Name::Await: return "svc.await";
    case Name::Service: return "svc.service";
    case Name::kCount: break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(std::string label, std::int64_t op)
    : label_(std::move(label)), op_(op), born_ns_(now_ns()) {}

ThreadTrace::Install::Install(ThreadTrace* t) : prev_(t_current) {
  t_current = t;
}

ThreadTrace::Install::~Install() { t_current = prev_; }

ThreadTrace* ThreadTrace::current() { return t_current; }

int ThreadTrace::open(Name n) {
  if (counts_rt_allocs(n) && rt_depth_++ == 0) rt_alloc_mark_ = thread_allocs();
  if (n == Name::Execute) exec_alloc_mark_ = thread_allocs();
  Span s;
  s.name = n;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.t0 = now_ns();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void ThreadTrace::close(int idx) {
  const std::int64_t t1 = now_ns();
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(idx)];
  Totals& tot = totals_[static_cast<std::size_t>(s.name)];
  if (s.name == Name::Execute) exec_allocs_ += thread_allocs() - exec_alloc_mark_;
  if (counts_rt_allocs(s.name) && --rt_depth_ == 0)
    rt_allocs_ += thread_allocs() - rt_alloc_mark_;
  if (is_idle_poll(s.name) && idx > 0) {
    Span& prev = spans_[static_cast<std::size_t>(idx) - 1];
    if (prev.name == s.name && prev.parent == s.parent) {
      // Spinning: the gap since the previous empty poll is waiting too.
      tot.ns += t1 - prev.t1;
      prev.t1 = t1;
      spans_.pop_back();
      return;
    }
  }
  s.t1 = t1;
  ++tot.calls;
  tot.ns += t1 - s.t0;
}

std::array<std::int64_t, kNames> self_ns(const ThreadTrace& t) {
  std::array<std::int64_t, kNames> out{};
  const std::vector<Span>& spans = t.spans();
  for (const Span& s : spans) out[static_cast<std::size_t>(s.name)] += s.t1 - s.t0;
  for (const Span& s : spans)
    if (s.parent >= 0)
      out[static_cast<std::size_t>(spans[static_cast<std::size_t>(s.parent)].name)] -=
          s.t1 - s.t0;
  return out;
}

double self_sum_error(const ThreadTrace& t) {
  const std::array<std::int64_t, kNames> self = self_ns(t);
  std::int64_t sum = 0;
  for (const std::int64_t v : self) sum += v;
  const double life = static_cast<double>(t.died_ns() - t.born_ns());
  if (life <= 0.0) return 1.0;
  return std::fabs(static_cast<double>(sum) - life) / life;
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<const ThreadTrace*>& threads,
                        const std::string& metadata) {
  std::int64_t base = INT64_MAX;
  for (const ThreadTrace* t : threads) base = std::min(base, t->born_ns());
  os << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << metadata
     << ",\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    const ThreadTrace& t = *threads[tid];
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s op %lld\"}}",
                  first ? "" : ",", tid + 1, t.label().c_str(),
                  static_cast<long long>(t.op()));
    os << buf;
    first = false;
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
      const Span& s = t.spans()[i];
      std::snprintf(buf, sizeof buf,
                    ",{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                    "\"span\":%zu,\"parent\":%d}}",
                    to_string(s.name), tid + 1,
                    static_cast<double>(s.t0 - base) / 1e3,
                    static_cast<double>(s.t1 - s.t0) / 1e3,
                    static_cast<long long>(s.op), i, s.parent);
      os << buf;
    }
  }
  os << "]}\n";
}

}  // namespace pb
