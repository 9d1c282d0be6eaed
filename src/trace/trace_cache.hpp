// Persistent trace cache.
//
// Generating a multi-million-request synthetic trace costs far more than
// replaying it, and every bench binary regenerates the same traces from
// scratch. Given a cache directory, generated traces are serialized there
// as PODTRC05 images (trace/trace_io.hpp) and later runs map them and index
// them in place: one xx64 checksum pass, no fingerprint copy.
//
// Cache key: "<profile-name>-<16-hex FNV-1a of a canonical serialization
// of every generator-relevant profile field>.podtrc". FNV-1a only names
// the file (it hashes a few hundred bytes); it is not the body checksum.
// The hash covers request counts, seed, size distributions, class mix,
// burst shape, etc., so the same name at a different scale (or after
// a profile tweak) never aliases. Two version tags are mixed in: bump
// kTraceCacheGenVersion whenever TraceGenerator's output changes for
// identical profiles; kTraceFormatVersion changes with the binary format,
// so builds that read different formats never share a cache file.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "synth/profile.hpp"
#include "trace/request.hpp"
#include "trace/trace_io.hpp"

namespace pod {

/// Bump when TraceGenerator output changes for an unchanged profile.
inline constexpr int kTraceCacheGenVersion = 1;

/// File name (key) for a profile: name + param-hash, no directory.
std::string trace_cache_key(const WorkloadProfile& profile,
                            int format_version = kTraceFormatVersion);

/// Full path for a profile under `dir`.
std::string trace_cache_path(const std::string& dir,
                             const WorkloadProfile& profile);

/// Loads the cached trace for `profile` from `dir` if present and
/// readable; nullopt on miss. A corrupt or old-version cache entry is
/// treated as a miss (reported on stderr, then regenerated and rewritten),
/// not an error.
std::optional<Trace> try_load_cached_trace(const std::string& dir,
                                           const WorkloadProfile& profile);

/// Atomically writes `trace` into the cache (temp file + rename), creating
/// `dir` if needed. Best-effort: failures are reported by return value.
/// Never rewrites a published file in place, so a trace still mapped from
/// an older copy keeps its (now unlinked) inode intact.
bool store_cached_trace(const std::string& dir,
                        const WorkloadProfile& profile, const Trace& trace);

/// One-stop: cached load from `dir` when it hits, otherwise generate (and
/// store into `dir`). An empty `dir` disables the cache.
Trace obtain_trace(const WorkloadProfile& profile, const std::string& dir);

/// Generates (or cache-loads from `dir`) every profile's trace, fanning
/// uncached generation across `jobs` ThreadPool workers. Results are
/// returned in input order. With jobs <= 1 this degenerates to a serial
/// loop.
std::vector<Trace> obtain_traces(const std::vector<WorkloadProfile>& profiles,
                                 std::size_t jobs, const std::string& dir);

}  // namespace pod
