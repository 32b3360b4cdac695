// Standalone shard server binary for the subprocess crash tests (see
// tests/rpc_serve_test.cc, RpcSubprocessTest) — a *real* process serving a
// real corpus over the RPC protocol, so kill -9 exercises the genuine
// article: kernel-closed sockets, never-flushed responses, refused redials.
//
//   adamine_shard_server <bundle> <tensor_name> <port_file> [stall_ms]
//                        [backend]
//
// Loads tensor <tensor_name> from the ADMB bundle at <bundle>, serves it on
// a kernel-picked port, writes that port to <port_file> (atomically, via a
// rename, so a polling parent never reads a torn write), and then blocks
// forever — its only exit is a signal. A nonzero stall_ms arms
// net.write.stall in this process, delaying every query response by that
// long: the window the parent uses to kill the process mid-query. The
// optional backend argument is any registry name a service can host
// (default exhaustive), checked by serve::ServeConfig::Validate.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "io/serialize.h"
#include "net/shard_server.h"
#include "serve/retrieval_service.h"
#include "util/fault.h"

namespace {

int Run(int argc, char** argv) {
  if (argc < 4 || argc > 6) {
    std::fprintf(stderr,
                 "usage: %s <bundle> <tensor_name> <port_file> [stall_ms] "
                 "[backend]\n",
                 argv[0]);
    return 64;
  }
  const std::string bundle_path = argv[1];
  const std::string tensor_name = argv[2];
  const std::string port_file = argv[3];
  const long stall_ms = argc >= 5 ? std::strtol(argv[4], nullptr, 10) : 0;
  const std::string backend_name = argc >= 6 ? argv[5] : "exhaustive";

  namespace serve = adamine::serve;
  serve::ServeConfig serve_config;
  serve_config.backend = backend_name;
  serve_config.cache_capacity = 0;
  if (const adamine::Status valid = serve_config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "adamine_shard_server: %s\n",
                 valid.ToString().c_str());
    return 64;
  }
  auto service =
      serve::RetrievalService::Load(bundle_path, tensor_name, serve_config);
  if (!service.ok()) {
    std::fprintf(stderr, "adamine_shard_server: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  if (stall_ms > 0) {
    // Quantity-in-skip convention: ArmedSkip reads the delay, nothing
    // consumes it, so every response stalls.
    adamine::fault::Arm(adamine::fault::kNetWriteStall, stall_ms);
  }

  adamine::net::ShardServer server;
  const adamine::Status started = server.Start(
      std::shared_ptr<serve::RetrievalService>(std::move(service).value()),
      adamine::net::ShardServerConfig());
  if (!started.ok()) {
    std::fprintf(stderr, "adamine_shard_server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  const std::string tmp = port_file + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr || std::fprintf(out, "%d\n", server.port()) < 0 ||
      std::fclose(out) != 0 ||
      std::rename(tmp.c_str(), port_file.c_str()) != 0) {
    std::fprintf(stderr, "adamine_shard_server: cannot publish port to %s\n",
                 port_file.c_str());
    return 1;
  }

  for (;;) ::pause();  // Serve until killed.
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
