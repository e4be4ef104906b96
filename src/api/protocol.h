// The `transtore_cli serve` wire protocol: one JSON request object per
// line in, one JSON response line out (schema in src/api/README.md). The
// protocol is a serve_handler for api::serve_front, so every transport --
// stdin/stdout through serve_front::serve_stream, unix and TCP sockets
// through serve_front::start -- speaks it through the same reader and
// writer.
//
// The handler never blocks on a solve: it parses and admits the request
// on the session's reader thread (synth and recover jobs go straight to
// the executor's service queue, so a bounded queue rejects overflow with
// queue_full) and hands back either a complete reply line or a deferred
// `finish` that the writer resolves in request order.
#pragma once

#include <functional>
#include <string>

#include "api/executor.h"
#include "api/pipeline.h"
#include "api/serve.h"

namespace transtore::api {

/// Server-side settings of the protocol (the serve flags of the CLI).
struct protocol_options {
  /// Configuration every request starts from; a request's "options"
  /// object overrides individual fields.
  pipeline_options base;
  /// When set, built-in assays keep base's device count / grid instead of
  /// the paper's per-assay table (see apply_benchmark_resources).
  bool devices_pinned = false;
  bool grid_pinned = false;
  /// Budget in seconds for requests without a "deadline" (0 = none).
  double deadline_seconds = 0.0;
  /// Human log sink, one line per resolved synth or recover; empty = quiet.
  std::function<void(const std::string&)> log;
};

/// The protocol handler over `pool`, which must outlive the handler and
/// have a result cache (stats reports it, recover uses its negative tier).
[[nodiscard]] serve_handler make_protocol_handler(protocol_options options,
                                                  executor& pool);

/// A structured error reply without a request id, in the shape of
/// serve_options::framing_error.
[[nodiscard]] std::string protocol_error(const char* code,
                                         const std::string& message);

/// Set the paper's per-assay device count and grid (Table 2) for a
/// built-in assay, unless pinned. Shared by serve and `synth --all` so
/// their configurations -- and hence their cache keys -- cannot drift
/// apart. Leaves `options` unchanged for other names.
void apply_benchmark_resources(pipeline_options& options,
                               const std::string& assay, bool devices_pinned,
                               bool grid_pinned);

} // namespace transtore::api
