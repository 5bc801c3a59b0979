// Wire protocol of the compile-and-serve daemon (incflatd).
//
// A connection carries a sequence of *frames* in each direction.  A frame
// is a 4-byte big-endian unsigned payload length followed by exactly that
// many bytes of UTF-8 JSON — the same length-prefix framing MoarVM's async
// socket layer uses to delimit messages on a byte stream, chosen over
// newline-delimited JSON so payloads may contain raw newlines and so a
// reader can size its buffer before parsing.  Payloads are parsed with the
// strict Json::parse: the daemon is the first internet-facing consumer of
// that parser, so framing enforces a hard payload cap *before* any bytes
// reach it (a hostile length prefix must not allocate gigabytes).
//
// Requests are JSON objects with an "op" field:
//
//   {"op":"compile","benchmark":B,"mode":M?,"device":D?}
//   {"op":"run","benchmark":B,"dataset":S,"mode":M?,"device":D?,
//    "thresholds":{name:int,...}?,"tuned":bool?}
//   {"op":"tune","benchmark":B,"mode":M?,"device":D?,"trials":N?}
//   {"op":"stats"}      {"op":"ping"}      {"op":"shutdown"}
//
// plus an optional "id" (any JSON value) echoed verbatim in the response,
// so clients that pipeline requests can match reordered responses, and an
// optional "deadline_ms" (a number > 0; any other value answers
// "bad-request"): the end-to-end budget the client grants the daemon for
// this request, counted from the moment the frame is decoded.  A request
// still queued past its deadline is answered "timeout" without running; a
// request caught mid-execution returns "timeout" at the next cooperative
// cancellation check instead of burning its worker.
//
// Every response is an object with "ok":bool; failures carry "error"
// (message) and "code" ("bad-request" | "unknown-op" | "protocol" |
// "internal" | "run-failed" | "timeout" | "cancelled" | "overloaded" |
// "draining").  Failures the client should simply retry later — load sheds,
// deadline expiries, a draining daemon — additionally carry
// "retriable":true (see retriable_error below).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/support/json.h"

namespace incflat::serve {

/// Hard cap on a frame payload (bytes).  A length prefix above the cap is
/// a protocol error: the connection is poisoned and must be closed (the
/// stream offset can no longer be trusted).
constexpr size_t kMaxFramePayload = size_t{8} << 20;  // 8 MiB

/// Malformed framing (oversized or truncated declared length).  Distinct
/// from JsonParseError: framing errors poison the whole connection while a
/// malformed payload only fails its one request.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Wrap a payload in a length-prefixed frame.
std::string encode_frame(const std::string& payload);

/// Incremental frame decoder for a nonblocking byte stream: feed() whatever
/// chunk the socket produced, then drain complete payloads with next().
/// feed() throws ProtocolError as soon as a declared length exceeds
/// `max_payload` — before buffering the body.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(const char* data, size_t n);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Move the next complete payload into *payload; false when no complete
  /// frame is buffered yet.
  bool next(std::string* payload);

  /// Bytes buffered but not yet returned (header + partial body).
  size_t pending() const { return buf_.size(); }

 private:
  size_t max_payload_;
  std::string buf_;
};

/// Error codes carried in failure responses.
namespace code {
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kUnknownOp = "unknown-op";
inline constexpr const char* kProtocol = "protocol";
inline constexpr const char* kInternal = "internal";
inline constexpr const char* kRunFailed = "run-failed";
inline constexpr const char* kTimeout = "timeout";
inline constexpr const char* kCancelled = "cancelled";
/// Load shed: the daemon is over capacity (connection cap, queue cap or
/// per-connection in-flight cap).  Always retriable.
inline constexpr const char* kOverloaded = "overloaded";
/// The daemon is draining for shutdown; retry against another instance.
inline constexpr const char* kDraining = "draining";
}  // namespace code

/// A failure response: {"ok":false,"code":...,"error":...}.
Json error_response(const std::string& code, const std::string& message);

/// A *retriable* failure response: error_response plus "retriable":true —
/// the structured contract of every shed / deadline / drain outcome.  A
/// client seeing it knows the request itself was fine, the daemon just
/// could not serve it right now: back off and retry (incflat_client
/// --retries and serve_loadgen both key on this field, not on the code
/// list, so new retriable conditions need no client updates).
Json retriable_error(const std::string& code, const std::string& message);

/// True iff the parsed response is a structured retriable failure.
bool is_retriable(const Json& response);

/// Echo the request's "id" field (if any) into a response object.
void echo_id(const Json& request, Json& response);

}  // namespace incflat::serve
