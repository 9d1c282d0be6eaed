// Byte-level helpers for tests that edit PODTRC05 images: read and write
// the header, reseal the checksum after a deliberate edit, and assert that
// the loader refuses an image for a named reason.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hash/xx64.hpp"
#include "trace/trace_io.hpp"

namespace pod::test {

inline std::string image_of(const Trace& t) {
  std::stringstream ss;
  write_trace_binary(ss, t);
  return ss.str();
}

inline TraceImageHeader header_of(const std::string& bytes) {
  TraceImageHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

inline void put_header(std::string& bytes, const TraceImageHeader& h) {
  std::memcpy(bytes.data(), &h, sizeof(h));
}

/// Recomputes the checksum, so a structural edit reaches the loader's
/// structural checks instead of failing the checksum first.
inline void reseal(std::string& bytes) {
  constexpr std::size_t from =
      offsetof(TraceImageHeader, checksum) + sizeof(std::uint64_t);
  const std::uint64_t ck = xx64(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + from,
      bytes.size() - from);
  std::memcpy(bytes.data() + offsetof(TraceImageHeader, checksum), &ck,
              sizeof(ck));
}

/// Expects read_trace_binary to throw std::runtime_error whose message
/// contains `why`.
inline void expect_refused(const std::string& bytes, const std::string& why) {
  std::stringstream in(bytes);
  try {
    read_trace_binary(in);
    ADD_FAILURE() << "accepted; expected refusal: " << why;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << "refused for another reason: " << e.what();
  }
}

}  // namespace pod::test
