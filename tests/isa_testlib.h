// The ISA-level harness of the kernel suites (tests/kernel_test.cc,
// tests/quant_test.cc, tests/io_test.cc), after ggml's test-backend-ops: a
// value-parameterised fixture whose parameter is a kernel::Isa level. Each
// test caps kernel::ActiveIsa() at its level, so one body diffs the kernels
// of every level against their references, the portable loops included. A
// level the CPU lacks is reported as skipped, never as passed. GuardedBytes
// puts a kernel's input flush against an unmapped page.

#ifndef ADAMINE_TESTS_ISA_TESTLIB_H_
#define ADAMINE_TESTS_ISA_TESTLIB_H_

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "kernel/kernel.h"
#include "util/check.h"

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

/// `size` bytes that end flush against an unmapped (PROT_NONE) page, so a
/// read of one byte past them faults. AddressSanitizer cannot stand in for
/// the page: it does not see the AMX tile loads, which are inline asm.
class GuardedBytes {
 public:
  explicit GuardedBytes(int64_t size) {
    const int64_t page = sysconf(_SC_PAGESIZE);
    const int64_t body = (size + page - 1) / page * page;
    map_bytes_ = static_cast<size_t>(body + page);
    void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ADAMINE_CHECK(map != MAP_FAILED);
    map_ = static_cast<int8_t*>(map);
    ADAMINE_CHECK(mprotect(map_ + body, static_cast<size_t>(page),
                           PROT_NONE) == 0);
    data_ = map_ + body - size;
  }
  ~GuardedBytes() { munmap(map_, map_bytes_); }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;

  int8_t* data() { return data_; }

 private:
  int8_t* map_ = nullptr;
  size_t map_bytes_ = 0;
  int8_t* data_ = nullptr;
};

}  // namespace adamine

#endif  // ADAMINE_TESTS_ISA_TESTLIB_H_
