// One FedBIAD job over real localhost TCP, checked bit-for-bit against
// the in-process engine.
//
// The parent runs the in-process reference first (fl::AsyncSimulation on
// the virtual clock), then binds an EpollServerTransport on an ephemeral
// port, starts one tools/transport_client process per populated client
// (fork + exec, so every client is a fresh process), and drives the
// ServerRuntime to completion. The two trajectory fingerprints — per-round
// losses/accuracies/byte counts plus a CRC32C of the final parameters —
// must match exactly: real sockets, process scheduling, and arrival order
// change nothing the engine's determinism contract covers.
//
//   tcp_round [path/to/transport_client]
//
// The client binary defaults to ../tools/transport_client next to this
// executable's directory (the build tree layout); ctest passes it
// explicitly.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "../tools/transport_demo.hpp"
#include "smoke.hpp"
#include "transport/epoll.hpp"
#include "transport/server_runtime.hpp"

int main(int argc, char** argv) {
  using namespace fedbiad;
  const std::string client_bin =
      argc > 1 ? argv[1]
               : (std::filesystem::path(argv[0]).parent_path() / ".." /
                  "tools" / "transport_client")
                     .string();
  const std::string method = "fedbiad";
  const tools::DemoWorkload w =
      tools::make_demo_workload(method, examples::smoke());

  // In-process reference on the virtual clock.
  const fl::SimulationResult reference = tools::reference_run(w, method);
  const std::string want = tools::trajectory_text(reference);
  std::printf("— in-process reference —\n%s", want.c_str());

  // The same job over TCP: the parent serves, one client process each.
  transport::TransportServerConfig scfg;
  scfg.base = w.sim;
  scfg.scenario_name = "tcp_round";
  // Decode-on-arrival workers: uploads are CRC-verified and decoded off
  // the epoll thread, yet the trajectory diff below still demands byte
  // identity with the single-threaded in-process engine.
  scfg.decode_workers = 4;
  transport::EpollServerTransport transport({}, /*port=*/0);
  const std::string port = std::to_string(transport.port());

  std::vector<pid_t> children;
  for (std::size_t c = 0; c < w.partition.size(); ++c) {
    if (w.partition[c].empty()) continue;
    // Built before fork: the parent already runs threads, so the child
    // does nothing but exec.
    const std::string id = std::to_string(c);
    std::vector<const char*> args = {client_bin.c_str(), "--port", port.c_str(),
                                     "--client", id.c_str(), "--method",
                                     method.c_str(), "--reconnect-timeout",
                                     "30", nullptr};
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(args[0], const_cast<char* const*>(args.data()));
      ::_exit(127);
    }
    FEDBIAD_CHECK(pid > 0, "fork failed");
    children.push_back(pid);
  }

  transport::ServerRuntime server(scfg, transport, w.factory, w.test,
                                  w.partition,
                                  tools::make_demo_strategy(method));
  const transport::TransportServerResult result = server.run();
  const std::string got = tools::trajectory_text(result.sim);
  std::printf("— over TCP (port %s, %zu client processes) —\n%s",
              port.c_str(), children.size(), got.c_str());

  bool ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "client process %d failed\n", pid);
      ok = false;
    }
  }
  if (!result.conserved()) {
    std::fprintf(stderr, "conservation law violated over TCP\n");
    ok = false;
  }
  if (got != want) {
    std::fprintf(stderr, "TCP trajectory diverged from the reference\n");
    ok = false;
  }
  if (ok) std::printf("trajectories identical — %zu rounds\n",
                      result.sim.rounds.size());
  return ok ? 0 : 1;
}
