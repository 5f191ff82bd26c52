// rcr::serve wire protocol — length-prefixed binary frames, canonical
// query-spec encoding, and the (epoch, spec) result fingerprint.
//
// Every message travels as one frame: a little-endian u32 payload length
// followed by the payload. Request payloads carry a protocol version, the
// snapshot epoch being queried, and a QuerySpec in its canonical encoding;
// response payloads carry a message type, the request's fingerprint, and a
// type-specific body.
//
//   request  := u8 kQuery | u16 version | u64 epoch | canonical-spec
//   response := u8 type   | u64 fingerprint | body
//     kResult body := encoded result (see below)
//     kError  body := u32 len | message bytes
//     kShed   body := u64 queue_depth | u64 admit_limit | f64 window_p99_ms
//
// The canonical spec encoding is the normalization the cache key hashes:
// fields a kind ignores are cleared first (weight on non-crosstab kinds,
// confidence on kinds without an interval, the secondary column on
// single-column kinds), then the fields serialize in fixed order with
// length-prefixed strings and the confidence as its raw IEEE-754 bit
// pattern. Two requests therefore share a fingerprint — XXH64 of the
// canonical bytes seeded with the snapshot epoch — exactly when the engine
// would compute identical answers for them against the same snapshot.
//
// Result bodies encode doubles as bit patterns too, which is what makes
// the serving determinism contract checkable at the byte level: a served
// response body equals the encoding of a cold QueryEngine run bit for bit,
// for any thread count and either cache path.
//
// The weighted-option-share query kind (external weight span) is not
// servable: a span of caller memory has no wire representation. Weighted
// analyses go through the weight-column crosstab kinds instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "query/engine.hpp"

namespace rcr::serve {

inline constexpr std::uint16_t kProtocolVersion = 1;

// Frames larger than this are rejected before buffering (a corrupt or
// hostile length prefix must not look like a 4 GiB allocation request).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB

enum class QueryKind : std::uint8_t {
  kCrosstab = 1,
  kCrosstabMultiselect = 2,
  kCategoryShares = 3,
  kOptionShares = 4,
  kNumericSummary = 5,
  kGroupAnswered = 6,
};

enum class MsgType : std::uint8_t {
  kQuery = 1,
  kResult = 2,
  kError = 3,
  kShed = 4,
};

struct QuerySpec {
  QueryKind kind = QueryKind::kCategoryShares;
  std::string a;       // primary column
  std::string b;       // secondary column (crosstabs, group-answered)
  std::string weight;  // weight column (crosstab kinds); empty = unweighted
  double confidence = 0.95;  // share kinds only

  bool operator==(const QuerySpec&) const = default;
};

struct Request {
  std::uint64_t epoch = 0;
  QuerySpec spec;
};

struct Response {
  MsgType type = MsgType::kError;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> body;

  bool operator==(const Response&) const = default;
};

// Fields the kind ignores cleared to fixed values, so equivalent requests
// canonicalize (and fingerprint) identically.
QuerySpec canonicalize(QuerySpec spec);

// The canonical byte encoding of canonicalize(spec).
std::vector<std::uint8_t> canonical_bytes(const QuerySpec& spec);

// XXH64 of the canonical spec bytes, seeded with the snapshot epoch — the
// result-cache key and the provenance tag every response echoes.
std::uint64_t fingerprint(std::uint64_t epoch, const QuerySpec& spec);

// --- Message encoding -------------------------------------------------------

// Payload encoders (no length prefix; transports add the frame header).
std::vector<std::uint8_t> encode_request(const Request& req);
std::vector<std::uint8_t> encode_response(const Response& resp);

// Payload decoders; throw InvalidInputError on malformed bytes.
Request decode_request(std::span<const std::uint8_t> payload);
Response decode_response(std::span<const std::uint8_t> payload);

// Appends the u32 length prefix + payload to `out` (transport framing).
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

// Error / shed bodies.
std::vector<std::uint8_t> encode_error_body(const std::string& message);
std::string decode_error_body(std::span<const std::uint8_t> body);

struct ShedInfo {
  std::uint64_t queue_depth = 0;
  std::uint64_t admit_limit = 0;
  double window_p99_ms = 0.0;
};
std::vector<std::uint8_t> encode_shed_body(const ShedInfo& info);
ShedInfo decode_shed_body(std::span<const std::uint8_t> body);

// --- Engine bridge ----------------------------------------------------------

// Registers `spec` on the engine (validating columns with the engine's own
// errors). The returned id fetches the result after engine.run().
query::QueryId register_spec(query::QueryEngine& engine, const QuerySpec& spec);

// Encodes the engine's answer for `spec` as a kResult body. Doubles are
// raw bit patterns: equal result bits <=> equal bodies.
std::vector<std::uint8_t> encode_result_body(const query::QueryEngine& engine,
                                             query::QueryId id,
                                             const QuerySpec& spec);

// Client-side decoded result; `kind` selects which member is meaningful.
struct ResultView {
  QueryKind kind = QueryKind::kCategoryShares;
  data::LabeledCrosstab crosstab;
  std::vector<data::OptionShare> shares;
  query::NumericSummary numeric;
  std::vector<double> group_counts;
};
ResultView decode_result_body(std::span<const std::uint8_t> body);

}  // namespace rcr::serve
