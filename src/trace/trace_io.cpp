#include "trace/trace_io.hpp"

#include <charconv>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/mapped.hpp"
#include "hash/xx64.hpp"

namespace pod {

namespace {

constexpr char kMagic[8] = {'P', 'O', 'D', 'T', 'R', 'C', '0', '5'};
static_assert(kMagic[6] - '0' == kTraceFormatVersion / 10 &&
                  kMagic[7] - '0' == kTraceFormatVersion % 10,
              "the magic spells the format version the cache key uses");
/// The checksum covers every byte after its own field.
constexpr std::size_t kChecksummedFrom =
    offsetof(TraceImageHeader, checksum) + sizeof(std::uint64_t);
/// Column bytes per request (arrival, lba, nblocks, stream, type): bounds
/// the header's request count by the file size.
constexpr std::uint64_t kRequestBytes =
    sizeof(SimTime) + sizeof(Lba) + 2 * sizeof(std::uint32_t) + 1;

/// The one column layout for the given counts: the writer emits it and the
/// reader refuses anything else. Callers bound the counts first, so no sum
/// here can overflow.
TraceImageHeader layout_for(std::uint64_t requests, std::uint64_t fingerprints,
                            std::uint64_t name_bytes) {
  TraceImageHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.requests = requests;
  h.fingerprints = fingerprints;
  h.name_bytes = name_bytes;
  std::uint64_t end = sizeof(TraceImageHeader) + name_bytes;
  const auto column = [&end](std::uint64_t bytes) {
    const std::uint64_t at =
        (end + kTraceColumnAlign - 1) / kTraceColumnAlign * kTraceColumnAlign;
    end = at + bytes;
    return at;
  };
  h.arrival_off = column(requests * sizeof(SimTime));
  h.lba_off = column(requests * sizeof(Lba));
  h.nblocks_off = column(requests * sizeof(std::uint32_t));
  h.stream_off = column(requests * sizeof(std::uint32_t));
  h.type_off = column(requests);
  h.fp_off = column(fingerprints * sizeof(Fingerprint));
  h.file_bytes = end;
  return h;
}

OpType op_from_byte(std::uint8_t b) {
  if (b != static_cast<std::uint8_t>(OpType::kRead) &&
      b != static_cast<std::uint8_t>(OpType::kWrite))
    throw std::runtime_error("bad op byte in binary trace");
  return static_cast<OpType>(b);
}

/// Validates a whole PODTRC05 image, then builds the trace over it: the
/// request loop reads the typed columns in place and the chunk spans point
/// into the image's fingerprint blob, which the trace's arena adopts.
Trace parse_trace_image(FileImage image) {
  const auto* base =
      reinterpret_cast<const unsigned char*>(image.bytes().data());
  const std::size_t size = image.bytes().size();
  if (size < sizeof(kMagic) || std::memcmp(base, kMagic, 6) != 0)
    throw std::runtime_error("not a pod binary trace");
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(
        "unsupported binary trace version " +
        std::string(reinterpret_cast<const char*>(base), sizeof(kMagic)) +
        " (this build reads PODTRC05 only)");
  if (size < sizeof(TraceImageHeader))
    throw std::runtime_error("truncated binary trace header");
  TraceImageHeader h;
  std::memcpy(&h, base, sizeof(h));

  // Structure first, against the real file size and before any allocation:
  // a corrupt count must surface as a refusal, not as a giant reserve.
  if (h.file_bytes != size)
    throw std::runtime_error(size < h.file_bytes
                                 ? "truncated binary trace"
                                 : "binary trace longer than its header says");
  if (h.name_bytes > size || h.requests > size / kRequestBytes ||
      h.fingerprints > size / sizeof(Fingerprint))
    throw std::runtime_error("binary trace header counts exceed the file size");
  if (h.warmup > h.requests) throw std::runtime_error("bad warmup count");
  const TraceImageHeader want =
      layout_for(h.requests, h.fingerprints, h.name_bytes);
  for (const std::uint64_t off : {h.arrival_off, h.lba_off, h.nblocks_off,
                                  h.stream_off, h.type_off, h.fp_off})
    if (off % kTraceColumnAlign != 0)
      throw std::runtime_error("misaligned column in binary trace");
  if (h.arrival_off != want.arrival_off || h.lba_off != want.lba_off ||
      h.nblocks_off != want.nblocks_off || h.stream_off != want.stream_off ||
      h.type_off != want.type_off || h.fp_off != want.fp_off ||
      want.file_bytes != size)
    throw std::runtime_error(
        "binary trace column layout does not match its counts");

  if (xx64(base + kChecksummedFrom, size - kChecksummedFrom) != h.checksum)
    throw std::runtime_error("binary trace checksum mismatch");

  Trace trace;
  trace.name.assign(
      reinterpret_cast<const char*>(base + sizeof(TraceImageHeader)),
      static_cast<std::size_t>(h.name_bytes));
  trace.warmup_count = static_cast<std::size_t>(h.warmup);
  const auto* arrival = reinterpret_cast<const SimTime*>(base + h.arrival_off);
  const auto* lba = reinterpret_cast<const Lba*>(base + h.lba_off);
  const auto* nblocks =
      reinterpret_cast<const std::uint32_t*>(base + h.nblocks_off);
  const auto* stream =
      reinterpret_cast<const std::uint32_t*>(base + h.stream_off);
  const std::uint8_t* type = base + h.type_off;
  const auto* blob = reinterpret_cast<const Fingerprint*>(base + h.fp_off);
  const auto count = static_cast<std::size_t>(h.requests);
  const auto total_fps = static_cast<std::size_t>(h.fingerprints);

  trace.requests.reserve(count);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    IoRequest r;
    r.id = i;
    r.arrival = arrival[i];
    r.type = op_from_byte(type[i]);
    r.lba = lba[i];
    r.nblocks = nblocks[i];
    r.stream = stream[i];
    if (r.nblocks == 0) throw std::runtime_error("zero-length request");
    if (r.is_write()) {
      if (r.nblocks > total_fps - offset)
        throw std::runtime_error("fingerprint blob overrun");
      r.chunks = {blob + offset, r.nblocks};
      offset += r.nblocks;
    }
    trace.requests.push_back(r);
  }
  if (offset != total_fps)
    throw std::runtime_error("fingerprint blob underrun");
  // The requests now hold everything the columns did; only the blob stays
  // referenced, so the column pages need not stay resident.
  image.release(static_cast<std::size_t>(h.arrival_off),
                static_cast<std::size_t>(h.fp_off - h.arrival_off));
  trace.arena().adopt(std::move(image), {blob, total_fps});
  return trace;
}

std::string hex16(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kHex[v & 0xF];
    v >>= 4;
  }
  return s;
}

std::uint64_t parse_hex16(const std::string& s) {
  if (s.size() != 16) throw std::runtime_error("bad fingerprint field: " + s);
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw std::runtime_error("bad hex digit in fingerprint: " + s);
  }
  return v;
}

template <typename T>
T parse_uint(const std::string& s) {
  T v{};
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error("bad numeric field: " + s);
  return v;
}

}  // namespace

void write_trace_csv(std::ostream& out, const Trace& trace) {
  out << "# pod-trace name=" << trace.name
      << " requests=" << trace.requests.size()
      << " warmup=" << trace.warmup_count << "\n";
  for (const IoRequest& r : trace.requests) {
    out << r.arrival << ',' << (r.is_write() ? 'W' : 'R') << ',' << r.lba << ','
        << r.nblocks;
    // Optional stream token: `s<id>`, unambiguous against the 16-hex-digit
    // fingerprint tokens ('s' is not a hex digit). Omitted for the default
    // stream so pre-existing traces round-trip byte-identically.
    if (r.stream != 0) out << ",s" << r.stream;
    for (const Fingerprint& fp : r.chunks) out << ',' << hex16(fp.prefix64());
    out << '\n';
  }
}

Trace read_trace_csv(std::istream& in, std::string name) {
  Trace trace;
  trace.name = std::move(name);
  std::string line;
  std::uint64_t next_id = 0;
  std::vector<Fingerprint> scratch;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header comment: recover name/warmup if present.
      const auto npos = line.find("name=");
      if (npos != std::string::npos) {
        const auto end = line.find(' ', npos);
        trace.name = line.substr(npos + 5, end - npos - 5);
      }
      const auto wpos = line.find("warmup=");
      if (wpos != std::string::npos)
        trace.warmup_count = parse_uint<std::size_t>(line.substr(wpos + 7));
      continue;
    }
    std::stringstream ss(line);
    std::string field;
    IoRequest r;
    r.id = next_id++;
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing timestamp");
    r.arrival = parse_uint<SimTime>(field);
    if (!std::getline(ss, field, ',') || field.size() != 1)
      throw std::runtime_error("missing op field");
    if (field[0] == 'W' || field[0] == 'w') r.type = OpType::kWrite;
    else if (field[0] == 'R' || field[0] == 'r') r.type = OpType::kRead;
    else throw std::runtime_error("bad op field: " + field);
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing lba");
    r.lba = parse_uint<Lba>(field);
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing nblocks");
    r.nblocks = parse_uint<std::uint32_t>(field);
    if (r.nblocks == 0) throw std::runtime_error("zero-length request");
    scratch.clear();
    bool first_tail_field = true;
    while (std::getline(ss, field, ',')) {
      if (first_tail_field && field.size() > 1 && field[0] == 's') {
        r.stream = parse_uint<std::uint32_t>(field.substr(1));
        first_tail_field = false;
        continue;
      }
      first_tail_field = false;
      scratch.push_back(Fingerprint::of_prefix(parse_hex16(field)));
    }
    if (r.is_write() && scratch.size() != r.nblocks)
      throw std::runtime_error("write fingerprint count != nblocks");
    if (r.is_read() && !scratch.empty())
      throw std::runtime_error("read request carries fingerprints");
    trace.append(r, scratch);
  }
  if (trace.warmup_count > trace.requests.size())
    throw std::runtime_error("warmup count exceeds request count");
  return trace;
}

void write_trace_binary(std::ostream& out, const Trace& trace) {
  std::uint64_t total_fps = 0;
  for (const IoRequest& r : trace.requests) {
    // The format implies each request's fingerprint count from its type.
    if (r.chunks.size() != (r.is_write() ? r.nblocks : 0u))
      throw std::runtime_error(
          "cannot serialize a request whose fingerprint count is not "
          "nblocks (write) or 0 (read)");
    total_fps += r.chunks.size();
  }
  TraceImageHeader h =
      layout_for(trace.requests.size(), total_fps, trace.name.size());
  h.warmup = trace.warmup_count;

  std::vector<unsigned char> image(static_cast<std::size_t>(h.file_bytes));
  unsigned char* base = image.data();
  std::memcpy(base + sizeof(TraceImageHeader), trace.name.data(),
              trace.name.size());
  std::size_t fp_at = static_cast<std::size_t>(h.fp_off);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    const auto type = static_cast<std::uint8_t>(r.type);
    std::memcpy(base + h.arrival_off + i * sizeof(SimTime), &r.arrival,
                sizeof(SimTime));
    std::memcpy(base + h.lba_off + i * sizeof(Lba), &r.lba, sizeof(Lba));
    std::memcpy(base + h.nblocks_off + i * sizeof(std::uint32_t), &r.nblocks,
                sizeof(std::uint32_t));
    std::memcpy(base + h.stream_off + i * sizeof(std::uint32_t), &r.stream,
                sizeof(std::uint32_t));
    base[h.type_off + i] = type;
    // Written from the spans, so any arena layout serializes correctly.
    if (!r.chunks.empty())
      std::memcpy(base + fp_at, r.chunks.data(), r.chunks.size_bytes());
    fp_at += r.chunks.size_bytes();
  }
  std::memcpy(base, &h, sizeof(h));
  h.checksum = xx64(base + kChecksummedFrom, image.size() - kChecksummedFrom);
  std::memcpy(base + offsetof(TraceImageHeader, checksum), &h.checksum,
              sizeof(h.checksum));
  out.write(reinterpret_cast<const char*>(base),
            static_cast<std::streamsize>(image.size()));
}

Trace read_trace_binary(std::istream& in) {
  return parse_trace_image(FileImage::read(in));
}

namespace {
std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream in(path, mode);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}
std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) throw std::runtime_error("cannot open " + path);
  return out;
}
}  // namespace

void save_trace_csv(const std::string& path, const Trace& trace) {
  auto out = open_out(path, std::ios::out);
  write_trace_csv(out, trace);
}

Trace load_trace_csv(const std::string& path) {
  auto in = open_in(path, std::ios::in);
  return read_trace_csv(in, path);
}

void save_trace_binary(const std::string& path, const Trace& trace) {
  auto out = open_out(path, std::ios::out | std::ios::binary);
  write_trace_binary(out, trace);
  if (!out) throw std::runtime_error("short write to " + path);
}

Trace load_trace_binary(const std::string& path) {
  return parse_trace_image(FileImage::map(path));
}

}  // namespace pod
