// Async-signal-safe text rendering for the crash-time dumps
// (Recorder::DumpTo, MetricsRegistry::DumpTo): numbers and strings are
// appended into a caller's stack buffer and written with write(2) — no
// locks, no allocation, no stdio. Each Append* returns the number of
// characters it appended.

#ifndef SLICETUNER_OBS_SIGNAL_SAFE_H_
#define SLICETUNER_OBS_SIGNAL_SAFE_H_

#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace slicetuner {
namespace obs {
namespace signal_safe {

inline size_t AppendDec(char* buf, uint64_t value) {
  char tmp[24];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

inline size_t AppendHex16(char* buf, uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = kDigits[(value >> (4 * i)) & 0xf];
  }
  return 16;
}

/// Appends at most `max` characters of `s`.
inline size_t AppendStr(char* buf, const char* s, size_t max = SIZE_MAX) {
  size_t n = 0;
  while (n < max && s[n] != '\0') {
    buf[n] = s[n];
    ++n;
  }
  return n;
}

/// Fixed-point with up to six decimals (trailing zeros trimmed); values of
/// 1e18 and above in d.dddddde+N form; NaN and +/-Inf as Prometheus
/// spells them. At most 28 characters.
inline size_t AppendDouble(char* buf, double value) {
  if (std::isnan(value)) return AppendStr(buf, "NaN");
  if (std::isinf(value)) return AppendStr(buf, value > 0 ? "+Inf" : "-Inf");
  size_t n = 0;
  if (value < 0) {
    buf[n++] = '-';
    value = -value;
  }
  int exponent = 0;
  if (value >= 1e18) {
    while (value >= 10.0) {
      value /= 10.0;
      ++exponent;
    }
  }
  uint64_t whole = static_cast<uint64_t>(value);
  uint64_t micros =
      static_cast<uint64_t>((value - static_cast<double>(whole)) * 1e6 + 0.5);
  if (micros >= 1000000) {
    ++whole;
    micros -= 1000000;
  }
  n += AppendDec(buf + n, whole);
  if (micros != 0) {
    buf[n++] = '.';
    int digits = 6;
    while (micros % 10 == 0) {
      micros /= 10;
      --digits;
    }
    for (int i = digits - 1; i >= 0; --i) {
      buf[n + i] = static_cast<char>('0' + micros % 10);
      micros /= 10;
    }
    n += static_cast<size_t>(digits);
  }
  if (exponent != 0) {
    n += AppendStr(buf + n, "e+");
    n += AppendDec(buf + n, static_cast<uint64_t>(exponent));
  }
  return n;
}

inline bool WriteAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace signal_safe
}  // namespace obs
}  // namespace slicetuner

#endif  // SLICETUNER_OBS_SIGNAL_SAFE_H_
