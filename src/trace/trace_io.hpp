// Trace serialization: a human-greppable CSV form and a binary trace image.
//
// CSV line:  <timestamp_ns>,<R|W>,<lba>,<nblocks>[,<fp0_hex16>,<fp1_hex16>,...]
// with fingerprints only on writes (16 hex chars = the 64-bit prefix; the
// remaining fingerprint bytes are re-derived deterministically on load).
//
// Binary (PODTRC05), host byte order (little-endian on every supported
// target):
//
//   TraceImageHeader        fixed 104 bytes, see below
//   name                    name_bytes bytes
//   arrival column          requests x i64
//   lba column              requests x u64
//   nblocks column          requests x u32
//   stream column           requests x u32
//   type column             requests x u8
//   fingerprint blob        fingerprints x 16
//
// Each column starts on a kTraceColumnAlign boundary; the gaps are zero
// padding.
//
// A write carries nblocks fingerprints and a read none, so the per-request
// fingerprint count is implied by the type column. One xx64 checksum covers
// every byte after the checksum field (header, name, columns, padding and
// blob). The loader verifies it in one pass and then indexes the columns
// in place: request spans point straight into the loaded image. Older
// versions (PODTRC01-04) are refused with a message naming the version.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/request.hpp"

namespace pod {

/// Binary format version written and read by this build.
inline constexpr int kTraceFormatVersion = 5;
/// Every column of a PODTRC05 image starts at a multiple of this.
inline constexpr std::uint64_t kTraceColumnAlign = 16;

struct TraceImageHeader {
  char magic[8];               // "PODTRC05"
  std::uint64_t checksum;      // xx64 of bytes [16, file_bytes)
  std::uint64_t file_bytes;    // total image size
  std::uint64_t requests;
  std::uint64_t warmup;
  std::uint64_t fingerprints;  // total over all writes
  std::uint64_t name_bytes;    // name follows the header directly
  std::uint64_t arrival_off;
  std::uint64_t lba_off;
  std::uint64_t nblocks_off;
  std::uint64_t stream_off;
  std::uint64_t type_off;
  std::uint64_t fp_off;
};
static_assert(sizeof(TraceImageHeader) == 104);

void write_trace_csv(std::ostream& out, const Trace& trace);
/// Throws std::runtime_error on malformed input.
Trace read_trace_csv(std::istream& in, std::string name = "trace");

void write_trace_binary(std::ostream& out, const Trace& trace);
/// Throws std::runtime_error on malformed, corrupt or old-version input.
Trace read_trace_binary(std::istream& in);

void save_trace_csv(const std::string& path, const Trace& trace);
Trace load_trace_csv(const std::string& path);
void save_trace_binary(const std::string& path, const Trace& trace);
/// Maps the file and indexes it in place (see FileImage for the lifetime
/// rule: the file must not shrink in place while the trace is alive).
Trace load_trace_binary(const std::string& path);

}  // namespace pod
