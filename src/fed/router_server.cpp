#include "fed/router_server.h"

namespace ute {

RouterServer::RouterServer(RouterService& service, std::uint16_t port)
    : RouterServer(service, [port] {
        RouterServerOptions options;
        options.port = port;
        return options;
      }()) {}

RouterServer::RouterServer(RouterService& service,
                           const RouterServerOptions& options)
    : pool_(options.workers, options.queueDepth),
      frontEnd_(options, pool_,
                [&service](std::span<const std::uint8_t> payload,
                           ConnectionContext& ctx) {
                  return service.handle(payload, ctx);
                },
                "router relay queue") {}

}  // namespace ute
