// Output checks of the benchmark. Each returns an empty string when
// the output is correct and a one-line reason otherwise; a loop or
// job with any reason is counted as failed and its time is dropped.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lss/rt/master.hpp"
#include "lss/support/types.hpp"
#include "lss/svc/protocol.hpp"

namespace pb {

/// Every iteration of [0, n) appears in exactly one of `chunks`.
std::string coverage_error(std::span<const lss::Range> chunks, lss::Index n);

/// The master's own accounting: every iteration acknowledged once.
std::string outcome_error(const lss::rt::MasterOutcome& outcome, lss::Index n);

/// The image assembled on the master equals the reference bit for bit.
std::string image_error(std::span<const std::uint16_t> got,
                        std::span<const std::uint16_t> reference);

/// A service job finished Done, exactly once, covering [0, n).
std::string job_error(const lss::svc::JobResultMsg& result, lss::Index n);

}  // namespace pb
