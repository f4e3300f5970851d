// Tests of the benchmark's own checks: a wrong output must be
// reported as a failure and never timed.
#include <gtest/gtest.h>

#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "trace.hpp"

namespace {

using lss::Range;

TEST(Coverage, ExactCoverPasses) {
  const std::vector<Range> chunks = {{0, 3}, {5, 8}, {3, 5}};
  EXPECT_EQ(pb::coverage_error(chunks, 8), "");
}

TEST(Coverage, DoubleCountedChunkFails) {
  const std::vector<Range> chunks = {{0, 3}, {3, 8}, {3, 8}};
  EXPECT_NE(pb::coverage_error(chunks, 8), "");
}

TEST(Coverage, MissingOrOutOfRangeFails) {
  EXPECT_NE(pb::coverage_error(std::vector<Range>{{0, 7}}, 8), "");
  EXPECT_NE(pb::coverage_error(std::vector<Range>{{0, 9}}, 8), "");
}

TEST(Image, CorruptedColumnFails) {
  const std::vector<std::uint16_t> ref(64, 7);
  std::vector<std::uint16_t> got = ref;
  EXPECT_EQ(pb::image_error(got, ref), "");
  got[17] ^= 1;
  EXPECT_NE(pb::image_error(got, ref), "");
}

TEST(Job, NotDoneOrNotExactlyOnceFails) {
  lss::svc::JobResultMsg ok;
  ok.state = lss::svc::JobState::Done;
  ok.executed = {{0, 4}, {4, 10}};
  EXPECT_EQ(pb::job_error(ok, 10), "");
  lss::svc::JobResultMsg failed = ok;
  failed.state = lss::svc::JobState::Failed;
  EXPECT_NE(pb::job_error(failed, 10), "");
  lss::svc::JobResultMsg twice = ok;
  twice.executed.push_back({4, 5});
  EXPECT_NE(pb::job_error(twice, 10), "");
}

TEST(Trace, SelfTimesSumToLifetime) {
  pb::ThreadTrace t("test", 0);
  {
    pb::ThreadTrace::Install install(&t);
    pb::Scope root(pb::Name::WorkerThread);
    for (int i = 0; i < 3; ++i) {
      pb::Scope child(pb::Name::Execute);
      pb::Scope grandchild(pb::Name::ResultWrite);
      const std::int64_t until = pb::now_ns() + 200000;
      while (pb::now_ns() < until) {
      }
    }
    for (int i = 0; i < 4; ++i) {  // consecutive idle polls merge
      pb::Scope poll(pb::Name::WorkerPoll);
      poll.idle(pb::Name::WorkerIdlePoll);
    }
  }
  t.retire();
  EXPECT_EQ(t.spans().size(), 1u + 3u + 3u + 1u);
  EXPECT_EQ(t.totals(pb::Name::Execute).calls, 3);
  EXPECT_LT(pb::self_sum_error(t), 0.05);
}

pb::Options quick(const char* workload, const char* inject) {
  pb::Options o;
  o.workload = workload;
  o.seconds = 0.05;
  o.inject = inject;
  return o;
}

TEST(Inject, DoubleCountedChunkIsAFailureNotATime) {
  const pb::Report r = pb::run_fine_grain(quick("fine_grain_tcp", "chunk"), false);
  EXPECT_EQ(r.failed, 1);
  // Warm-up loops are set-up; every other attempted loop is timed
  // unless it failed.
  EXPECT_EQ(static_cast<std::int64_t>(r.loop_ms.size()),
            r.attempted - static_cast<std::int64_t>(r.setup_s.size()) - 1);
}

TEST(Inject, CorruptedColumnIsAFailureNotATime) {
  const pb::Report r = pb::run_paper_live(quick("paper_live", "column"));
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(static_cast<std::int64_t>(r.loop_ms.size()),
            r.attempted - static_cast<std::int64_t>(r.setup_s.size()) - 1);
}

TEST(Inject, CleanRunHasNoFailures) {
  const pb::Report r = pb::run_fine_grain(quick("fine_grain_masterless", ""), true);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GE(r.loop_ms.size(), 1u);
}

}  // namespace
