// Minimal flag parsing shared by dissentd and dissent-client: every
// deployment-shape flag maps 1:1 onto a DeployConfig field, so all processes
// launched with the same shape flags derive the same group and rng streams.
#ifndef DISSENT_BIN_DEPLOY_FLAGS_H_
#define DISSENT_BIN_DEPLOY_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/net/deployment.h"

namespace dissent {
namespace net {

// "--name=value" or "--name value". Returns true and advances *i on match.
inline bool FlagValue(int argc, char** argv, int* i, const char* name,
                      std::string* out) {
  const char* arg = argv[*i];
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) {
    return false;
  }
  if (arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  if (arg[n] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

// Parses the shared deployment-shape flags into `cfg`; returns false (and
// prints to stderr) on an unknown or malformed flag that is also not
// consumed by the caller (tracked via `consumed`).
inline bool ParseDeployFlag(int argc, char** argv, int* i, DeployConfig* cfg) {
  std::string v;
  if (FlagValue(argc, argv, i, "--seed", &v)) {
    cfg->seed = std::strtoull(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--servers", &v)) {
    cfg->num_servers = std::strtoul(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--clients", &v)) {
    cfg->num_clients = std::strtoul(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--clients-per-host", &v)) {
    cfg->clients_per_host = std::strtoul(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--depth", &v)) {
    cfg->pipeline_depth = std::strtoul(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--rounds", &v)) {
    cfg->rounds = std::strtoul(v.c_str(), nullptr, 10);
  } else if (FlagValue(argc, argv, i, "--host", &v)) {
    cfg->host = v;
  } else if (FlagValue(argc, argv, i, "--base-port", &v)) {
    cfg->base_port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
  } else if (FlagValue(argc, argv, i, "--abort-deadline-ms", &v)) {
    cfg->abort_deadline_us = std::strtoll(v.c_str(), nullptr, 10) * 1000;
  } else if (FlagValue(argc, argv, i, "--abort-agreement", &v)) {
    cfg->abort_agreement = v != "0";
  } else if (FlagValue(argc, argv, i, "--chaos-base-port", &v)) {
    cfg->chaos_base_port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
  } else {
    return false;
  }
  return true;
}

// Hex encoding for the cleartext logs ("<round> <hex>\n" per line).
inline std::string ToHex(const Bytes& b) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t c : b) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_BIN_DEPLOY_FLAGS_H_
