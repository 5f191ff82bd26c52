#include "serve/protocol.hpp"

#include <cstring>
#include <optional>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace rcr::serve {

namespace {

// --- Byte-level helpers (little-endian, doubles as bit patterns) ------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

 private:
  // resize + memcpy rather than insert(range): GCC 12's -Warray-bounds
  // false-positives on small constant-size range inserts.
  void raw(const void* p, std::size_t n) {
    const std::size_t old = out_.size();
    out_.resize(old + n);
    std::memcpy(out_.data() + old, p, n);
  }

  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const auto bytes = take(n);
    return std::string(reinterpret_cast<const char*>(bytes.data()), n);
  }

  bool exhausted() const { return pos_ == data_.size(); }
  void expect_exhausted(const char* what) const {
    if (!exhausted())
      throw InvalidInputError(std::string("serve: trailing bytes after ") +
                              what);
  }

 private:
  template <typename T>
  T load() {
    const auto bytes = take(sizeof(T));
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n)
      throw InvalidInputError("serve: truncated message");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

bool kind_has_weight(QueryKind k) {
  return k == QueryKind::kCrosstab || k == QueryKind::kCrosstabMultiselect;
}

bool kind_has_confidence(QueryKind k) {
  return k == QueryKind::kCategoryShares || k == QueryKind::kOptionShares;
}

bool kind_has_secondary(QueryKind k) {
  return k == QueryKind::kCrosstab || k == QueryKind::kCrosstabMultiselect ||
         k == QueryKind::kGroupAnswered;
}

QueryKind check_kind(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(QueryKind::kCrosstab) ||
      raw > static_cast<std::uint8_t>(QueryKind::kGroupAnswered))
    throw InvalidInputError("serve: unknown query kind " + std::to_string(raw));
  return static_cast<QueryKind>(raw);
}

void write_spec(Writer& w, const QuerySpec& canonical) {
  w.u8(static_cast<std::uint8_t>(canonical.kind));
  w.str(canonical.a);
  w.str(canonical.b);
  w.str(canonical.weight);
  w.f64(canonical.confidence);
}

QuerySpec read_spec(Reader& r) {
  QuerySpec spec;
  spec.kind = check_kind(r.u8());
  spec.a = r.str();
  spec.b = r.str();
  spec.weight = r.str();
  spec.confidence = r.f64();
  return spec;
}

void write_shares(Writer& w, const std::vector<data::OptionShare>& shares) {
  w.u32(static_cast<std::uint32_t>(shares.size()));
  for (const auto& s : shares) {
    w.str(s.label);
    w.f64(s.count);
    w.f64(s.total);
    w.f64(s.share.estimate);
    w.f64(s.share.lo);
    w.f64(s.share.hi);
  }
}

std::vector<data::OptionShare> read_shares(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<data::OptionShare> shares;
  shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    data::OptionShare s;
    s.label = r.str();
    s.count = r.f64();
    s.total = r.f64();
    s.share.estimate = r.f64();
    s.share.lo = r.f64();
    s.share.hi = r.f64();
    shares.push_back(std::move(s));
  }
  return shares;
}

void write_crosstab(Writer& w, const data::LabeledCrosstab& ct) {
  w.u32(static_cast<std::uint32_t>(ct.counts.rows()));
  w.u32(static_cast<std::uint32_t>(ct.counts.cols()));
  for (const auto& label : ct.row_labels) w.str(label);
  for (const auto& label : ct.col_labels) w.str(label);
  for (std::size_t i = 0; i < ct.counts.rows(); ++i)
    for (std::size_t j = 0; j < ct.counts.cols(); ++j)
      w.f64(ct.counts.at(i, j));
}

data::LabeledCrosstab read_crosstab(Reader& r) {
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  if (rows == 0 || cols == 0)
    throw InvalidInputError("serve: degenerate crosstab dimensions");
  data::LabeledCrosstab ct;
  ct.row_labels.reserve(rows);
  ct.col_labels.reserve(cols);
  for (std::uint32_t i = 0; i < rows; ++i) ct.row_labels.push_back(r.str());
  for (std::uint32_t j = 0; j < cols; ++j) ct.col_labels.push_back(r.str());
  ct.counts = stats::Contingency(rows, cols);
  for (std::uint32_t i = 0; i < rows; ++i)
    for (std::uint32_t j = 0; j < cols; ++j) ct.counts.at(i, j) = r.f64();
  return ct;
}

}  // namespace

// --- Canonicalization and fingerprint ---------------------------------------

QuerySpec canonicalize(QuerySpec spec) {
  if (!kind_has_weight(spec.kind)) spec.weight.clear();
  if (!kind_has_confidence(spec.kind)) spec.confidence = 0.0;
  if (!kind_has_secondary(spec.kind)) spec.b.clear();
  return spec;
}

std::vector<std::uint8_t> canonical_bytes(const QuerySpec& spec) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_spec(w, canonicalize(spec));
  return out;
}

std::uint64_t fingerprint(std::uint64_t epoch, const QuerySpec& spec) {
  const auto canon = canonical_bytes(spec);
  return xxhash64(canon.data(), canon.size(), epoch);
}

// --- Message encoding -------------------------------------------------------

std::vector<std::uint8_t> encode_request(const Request& req) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kQuery));
  w.u16(kProtocolVersion);
  w.u64(req.epoch);
  write_spec(w, canonicalize(req.spec));
  return out;
}

Request decode_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const auto type = r.u8();
  if (type != static_cast<std::uint8_t>(MsgType::kQuery))
    throw InvalidInputError("serve: expected a query message, got type " +
                            std::to_string(type));
  const auto version = r.u16();
  if (version != kProtocolVersion)
    throw InvalidInputError("serve: unsupported protocol version " +
                            std::to_string(version));
  Request req;
  req.epoch = r.u64();
  req.spec = read_spec(r);
  r.expect_exhausted("request");
  return req;
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 8 + resp.body.size());
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(resp.type));
  w.u64(resp.fingerprint);
  out.insert(out.end(), resp.body.begin(), resp.body.end());
  return out;
}

Response decode_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  Response resp;
  const auto type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kResult) ||
      type > static_cast<std::uint8_t>(MsgType::kShed))
    throw InvalidInputError("serve: unknown response type " +
                            std::to_string(type));
  resp.type = static_cast<MsgType>(type);
  resp.fingerprint = r.u64();
  resp.body.assign(payload.begin() + 9, payload.end());
  return resp;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  RCR_CHECK_MSG(payload.size() <= kMaxFrameBytes, "serve: frame too large");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&len);
  out.insert(out.end(), bytes, bytes + sizeof len);
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_error_body(const std::string& message) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.str(message);
  return out;
}

std::string decode_error_body(std::span<const std::uint8_t> body) {
  Reader r(body);
  std::string message = r.str();
  r.expect_exhausted("error body");
  return message;
}

std::vector<std::uint8_t> encode_shed_body(const ShedInfo& info) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(info.queue_depth);
  w.u64(info.admit_limit);
  w.f64(info.window_p99_ms);
  return out;
}

ShedInfo decode_shed_body(std::span<const std::uint8_t> body) {
  Reader r(body);
  ShedInfo info;
  info.queue_depth = r.u64();
  info.admit_limit = r.u64();
  info.window_p99_ms = r.f64();
  r.expect_exhausted("shed body");
  return info;
}

// --- Engine bridge ----------------------------------------------------------

query::QueryId register_spec(query::QueryEngine& engine,
                             const QuerySpec& spec) {
  const std::optional<std::string> weight =
      spec.weight.empty() ? std::nullopt
                          : std::optional<std::string>(spec.weight);
  switch (spec.kind) {
    case QueryKind::kCrosstab:
      return engine.add_crosstab(spec.a, spec.b, weight);
    case QueryKind::kCrosstabMultiselect:
      return engine.add_crosstab_multiselect(spec.a, spec.b, weight);
    case QueryKind::kCategoryShares:
      return engine.add_category_shares(spec.a, spec.confidence);
    case QueryKind::kOptionShares:
      return engine.add_option_shares(spec.a, spec.confidence);
    case QueryKind::kNumericSummary:
      return engine.add_numeric_summary(spec.a);
    case QueryKind::kGroupAnswered:
      return engine.add_group_answered(spec.a, spec.b);
  }
  throw InvalidInputError("serve: unknown query kind");
}

std::vector<std::uint8_t> encode_result_body(const query::QueryEngine& engine,
                                             query::QueryId id,
                                             const QuerySpec& spec) {
  const query::QueryResult& result = engine.raw_result(id);
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(spec.kind));
  switch (spec.kind) {
    case QueryKind::kCrosstab:
    case QueryKind::kCrosstabMultiselect:
      write_crosstab(w, result.crosstab);
      break;
    case QueryKind::kCategoryShares:
    case QueryKind::kOptionShares:
      write_shares(w, result.shares);
      break;
    case QueryKind::kNumericSummary: {
      w.f64(result.numeric.count);
      w.f64(result.numeric.sum);
      w.f64(result.numeric.min);
      w.f64(result.numeric.max);
      break;
    }
    case QueryKind::kGroupAnswered: {
      w.u32(static_cast<std::uint32_t>(result.group_counts.size()));
      for (double c : result.group_counts) w.f64(c);
      break;
    }
  }
  return out;
}

ResultView decode_result_body(std::span<const std::uint8_t> body) {
  Reader r(body);
  ResultView view;
  view.kind = check_kind(r.u8());
  switch (view.kind) {
    case QueryKind::kCrosstab:
    case QueryKind::kCrosstabMultiselect:
      view.crosstab = read_crosstab(r);
      break;
    case QueryKind::kCategoryShares:
    case QueryKind::kOptionShares:
      view.shares = read_shares(r);
      break;
    case QueryKind::kNumericSummary:
      view.numeric.count = r.f64();
      view.numeric.sum = r.f64();
      view.numeric.min = r.f64();
      view.numeric.max = r.f64();
      break;
    case QueryKind::kGroupAnswered: {
      const std::uint32_t n = r.u32();
      view.group_counts.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i)
        view.group_counts.push_back(r.f64());
      break;
    }
  }
  r.expect_exhausted("result body");
  return view;
}

}  // namespace rcr::serve
