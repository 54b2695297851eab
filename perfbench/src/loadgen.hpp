// Closed-loop TCP load generator for the replay workload: one thread, one
// non-blocking socket per client, poll(). Each client says Hello once and
// then answers every Dispatch with one of its pre-encoded Upload frames
// (round r replays frame r mod count), patched with the dispatch index and
// re-checksummed — no training, so the server is all that is measured.
// Upload → UploadAck is timed here, as the client sees it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decorators.hpp"

namespace perfbench {

struct ReplayClient {
  std::vector<std::uint8_t> hello_frame;   ///< full wire frame
  std::vector<std::vector<std::uint8_t>> upload_frames;  ///< dispatch index 0
};

struct LoadgenResult {
  std::size_t dispatches = 0;
  std::size_t uploads = 0;
  std::size_t acks = 0;
  std::size_t rejects = 0;
  std::size_t fins = 0;
  double cpu_seconds = 0.0;   ///< the generator thread's CPU time
  double wall_seconds = 0.0;  ///< connect → last Fin
  std::string error;          ///< empty when every client ended cleanly
};

/// Rewrites the dispatch index of an Upload frame in place and recomputes
/// the frame checksum.
void patch_upload_frame(std::vector<std::uint8_t>& frame,
                        std::uint64_t dispatch_index);

/// Runs until every client received Fin, a protocol error, or
/// `stall_seconds` without any progress. Call on the generator's thread.
LoadgenResult run_loadgen(std::uint16_t port, std::vector<ReplayClient> clients,
                          Probe& probe, double stall_seconds);

}  // namespace perfbench
