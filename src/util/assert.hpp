// Lightweight always-on invariant checks.
//
// PC_ASSERT fires in all build types (the data structures here are subtle
// enough that release-mode silent corruption is worse than the branch cost
// on cold paths). PC_DASSERT compiles away only when NDEBUG is defined,
// which no build this repo configures does (RelWithDebInfo is -O2 -g), so
// it runs in the tier-1 and benchmark builds too: a PC_DASSERT on a hot
// path must cost O(1).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace pathcopy::util {

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "pathcopy assertion failed: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg ? msg : "");
  std::abort();
}

}  // namespace pathcopy::util

#define PC_ASSERT(expr, msg)                                          \
  do {                                                                \
    if (!(expr)) [[unlikely]] {                                       \
      ::pathcopy::util::assert_fail(#expr, __FILE__, __LINE__, msg);  \
    }                                                                 \
  } while (0)

#ifndef NDEBUG
#define PC_DASSERT(expr, msg) PC_ASSERT(expr, msg)
#else
#define PC_DASSERT(expr, msg) \
  do {                        \
  } while (0)
#endif
