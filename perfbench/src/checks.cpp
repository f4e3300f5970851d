#include "checks.hpp"

#include <algorithm>

namespace pb {

std::string coverage_error(std::span<const lss::Range> chunks, lss::Index n) {
  std::vector<int> count(static_cast<std::size_t>(n), 0);
  for (const lss::Range& r : chunks) {
    if (r.begin < 0 || r.end > n || r.begin > r.end)
      return "chunk [" + std::to_string(r.begin) + "," + std::to_string(r.end) +
             ") outside [0," + std::to_string(n) + ")";
    for (lss::Index i = r.begin; i < r.end; ++i)
      ++count[static_cast<std::size_t>(i)];
  }
  for (lss::Index i = 0; i < n; ++i)
    if (count[static_cast<std::size_t>(i)] != 1)
      return "iteration " + std::to_string(i) + " executed " +
             std::to_string(count[static_cast<std::size_t>(i)]) + " times";
  return {};
}

std::string outcome_error(const lss::rt::MasterOutcome& outcome, lss::Index n) {
  if (static_cast<lss::Index>(outcome.execution_count.size()) != n)
    return "master accounted " + std::to_string(outcome.execution_count.size()) +
           " iterations, loop has " + std::to_string(n);
  if (!outcome.exactly_once()) return "master acknowledgements not exactly once";
  if (!outcome.lost_workers.empty()) return "master lost a worker";
  return {};
}

std::string image_error(std::span<const std::uint16_t> got,
                        std::span<const std::uint16_t> reference) {
  if (got.size() != reference.size()) return "image size differs from reference";
  const auto mismatch = std::mismatch(got.begin(), got.end(), reference.begin());
  if (mismatch.first == got.end()) return {};
  const auto at = static_cast<std::size_t>(mismatch.first - got.begin());
  return "image differs from reference at pixel " + std::to_string(at);
}

std::string job_error(const lss::svc::JobResultMsg& result, lss::Index n) {
  if (result.state != lss::svc::JobState::Done)
    return "job " + std::to_string(result.job_id) + " ended " +
           lss::svc::to_string(result.state);
  if (!result.exactly_once)
    return "job " + std::to_string(result.job_id) + " not exactly once";
  std::string why = coverage_error(result.executed, n);
  if (!why.empty()) return "job " + std::to_string(result.job_id) + ": " + why;
  return {};
}

}  // namespace pb
