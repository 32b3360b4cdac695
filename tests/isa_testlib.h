// The ISA-level harness of the kernel suites (tests/kernel_test.cc,
// tests/quant_test.cc), after ggml's test-backend-ops: a value-
// parameterised fixture whose parameter is a kernel::Isa level. Each test
// caps kernel::ActiveIsa() at its level, so one body diffs the kernels of
// every level against their references, the portable loops included. A
// level the CPU lacks is reported as skipped, never as passed.

#ifndef ADAMINE_TESTS_ISA_TESTLIB_H_
#define ADAMINE_TESTS_ISA_TESTLIB_H_

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

#include "kernel/kernel.h"

namespace adamine {

namespace kernel {

/// Prints a level by name in test listings ("GetParam() = avx2").
inline void PrintTo(Isa isa, std::ostream* os) { *os << IsaName(isa); }

}  // namespace kernel

/// Derive one fixture per suite and instantiate it with
/// INSTANTIATE_TEST_SUITE_P(AllLevels, Suite,
///                          ::testing::ValuesIn(kernel::kAllIsas),
///                          IsaLevelName);
class IsaLevelTest : public ::testing::TestWithParam<kernel::Isa> {
 protected:
  void SetUp() override {
    if (GetParam() > kernel::CpuIsa()) {
      GTEST_SKIP() << "this CPU lacks " << kernel::IsaName(GetParam());
    }
    cap_.emplace(GetParam());
  }

  void TearDown() override { cap_.reset(); }

 private:
  std::optional<kernel::internal::ScopedIsa> cap_;
};

/// Names each instance after its level: .../portable, .../avx2, ...
inline std::string IsaLevelName(
    const ::testing::TestParamInfo<kernel::Isa>& info) {
  return kernel::IsaName(info.param);
}

}  // namespace adamine

#endif  // ADAMINE_TESTS_ISA_TESTLIB_H_
