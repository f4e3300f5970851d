// In-memory span recorder for the traced benchmark run.
//
// Each thread the benchmark starts (or borrows, like the main thread
// acting as master) owns one ThreadTrace and installs it with
// ThreadTrace::Install. A Scope opens a span on the installed trace
// and closes it on destruction; with no trace installed a Scope is a
// null-pointer test and nothing else, so the untraced loops of the
// traced binary pay almost nothing. Spans nest strictly (RAII), so a
// span's parent is the innermost span open when it started, and a
// layer's self time is its duration minus its children's.
//
// Every span also feeds per-name totals (calls, nanoseconds, bytes),
// which is where the per-layer metrics come from; the span list
// itself serves the self-time check and the Chrome trace.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by the calling thread so far. Counted only
/// in the traced binary (alloc_count.cpp); 0 elsewhere.
std::uint64_t thread_allocs();

/// Span names, one per layer boundary the benchmark wraps.
enum class Name : std::uint8_t {
  Loop,            ///< master thread: fleet bring-up to last join
  WorkerThread,    ///< worker thread lifetime
  Connect,         ///< transport (and counter) bring-up
  Join,            ///< master joining the worker threads
  RtMaster,        ///< rt::run_master
  RtWorker,        ///< rt::run_worker_loop / run_masterless_worker
  MasterSend,      ///< master endpoint send / sendv
  MasterRecv,      ///< master endpoint blocking receive
  MasterPoll,      ///< master endpoint poll that returned messages
  MasterIdlePoll,  ///< master endpoint polls that returned nothing
  WorkerSend,
  WorkerRecv,
  WorkerPoll,
  WorkerIdlePoll,
  Execute,         ///< Workload::execute
  ResultWrite,     ///< worker result_into
  ResultApply,     ///< master on_result
  Claim,           ///< TicketCounter::fetch_add
  Tenant,          ///< service_mix tenant thread (one measurement)
  Submit,          ///< svc::Client::submit
  Await,           ///< svc::Client::await_result
  Service,         ///< svc::Service::run thread lifetime
  kCount
};
inline constexpr std::size_t kNames = static_cast<std::size_t>(Name::kCount);

const char* to_string(Name n);

struct Span {
  Name name = Name::Loop;
  std::int32_t parent = -1;  ///< index in the same thread's spans
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t op = 0;  ///< the loop or job this span belongs to
};

struct Totals {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t bytes = 0;
};

class ThreadTrace {
 public:
  ThreadTrace(std::string label, std::int64_t op);

  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  /// Makes `t` the calling thread's trace for the scope's lifetime.
  class Install {
   public:
    explicit Install(ThreadTrace* t);
    ~Install();
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    ThreadTrace* prev_;
  };

  static ThreadTrace* current();

  int open(Name n);
  /// Closes span `idx`. An idle poll directly following another idle
  /// poll of the same parent extends it instead of adding a span, so
  /// a spinning reactor leaves one span per wait, not thousands.
  void close(int idx);
  void add_bytes(int idx, std::int64_t bytes) {
    totals_[static_cast<std::size_t>(spans_[static_cast<std::size_t>(idx)].name)].bytes +=
        bytes;
  }
  /// Re-labels an open poll that turned out to find nothing.
  void mark_idle(int idx, Name idle) { spans_[static_cast<std::size_t>(idx)].name = idle; }
  /// Tags span `idx` with the operation it served, when that is only
  /// known once the span is open (a job id assigned by the service).
  void set_op(int idx, std::int64_t op) { spans_[static_cast<std::size_t>(idx)].op = op; }

  const std::string& label() const { return label_; }
  std::int64_t op() const { return op_; }
  const std::vector<Span>& spans() const { return spans_; }
  const Totals& totals(Name n) const { return totals_[static_cast<std::size_t>(n)]; }
  /// Allocations made inside RtMaster/RtWorker spans, not counting
  /// those of Workload::execute (the kernel's own scratch).
  std::uint64_t rt_allocs() const { return rt_allocs_ - exec_allocs_; }
  std::int64_t born_ns() const { return born_ns_; }
  std::int64_t died_ns() const { return died_ns_; }
  /// Stamps the end of the thread's life (its last statement).
  void retire() { died_ns_ = now_ns(); }

 private:
  std::string label_;
  std::int64_t op_;
  std::int64_t born_ns_;
  std::int64_t died_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::array<Totals, kNames> totals_{};
  int rt_depth_ = 0;
  std::uint64_t rt_alloc_mark_ = 0;
  std::uint64_t rt_allocs_ = 0;
  std::uint64_t exec_alloc_mark_ = 0;
  std::uint64_t exec_allocs_ = 0;
};

/// RAII span on the calling thread's installed trace (no-op without).
class Scope {
 public:
  explicit Scope(Name n) : t_(ThreadTrace::current()) {
    if (t_ != nullptr) idx_ = t_->open(n);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void bytes(std::int64_t b) {
    if (t_ != nullptr) t_->add_bytes(idx_, b);
  }
  void idle(Name n) {
    if (t_ != nullptr) t_->mark_idle(idx_, n);
  }
  void op(std::int64_t id) {
    if (t_ != nullptr) t_->set_op(idx_, id);
  }

 private:
  ThreadTrace* t_;
  int idx_ = -1;
};

/// Self time per span name over one thread's spans: each span's
/// duration minus the time its direct children cover.
std::array<std::int64_t, kNames> self_ns(const ThreadTrace& t);

/// |sum of self times - lifetime| / lifetime for one thread, where
/// the lifetime is born..died (stamped outside every span).
double self_sum_error(const ThreadTrace& t);

/// Writes a Chrome trace (chrome://tracing, Perfetto) of `threads`,
/// with `metadata` (a JSON object's text) under "metadata".
void write_chrome_trace(std::ostream& os,
                        const std::vector<const ThreadTrace*>& threads,
                        const std::string& metadata);

}  // namespace pb
