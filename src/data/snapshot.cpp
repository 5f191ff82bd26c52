#include "data/snapshot.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/mmap_file.hpp"

namespace rcr::data {

namespace {

// --- On-disk layout ----------------------------------------------------------
//
//   [ 0, 64)            header (fixed size, checksummed)
//   [64, data_end)      pages: raw little-endian arrays, each starting on a
//                       64-byte boundary (zero padding between pages)
//   [data_end, ...)     footer: dictionary section + page index section,
//                       each length-prefixed and checksummed
//   last 32 bytes       trailer: footer offset/size, checksum, magic
//
// Full byte-level specification in DESIGN.md "Columnar snapshot format".

constexpr char kMagic[8] = {'R', 'C', 'R', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kTrailerBytes = 32;
constexpr std::size_t kPageAlign = 64;
constexpr std::size_t kIndexEntryBytes = 48;

// Page kinds; each column kind owns a fixed set of them.
constexpr std::uint32_t kPageF64 = 0;      // numeric values
constexpr std::uint32_t kPageCodes = 1;    // categorical i32 codes
constexpr std::uint32_t kPageMasks = 2;    // multi-select u64 bitsets
constexpr std::uint32_t kPageMissing = 3;  // multi-select u8 missing flags
constexpr std::size_t kPageKinds = 4;

std::size_t page_elem_size(std::uint32_t kind) {
  switch (kind) {
    case kPageF64: return sizeof(double);
    case kPageCodes: return sizeof(std::int32_t);
    case kPageMasks: return sizeof(std::uint64_t);
    case kPageMissing: return sizeof(std::uint8_t);
    default: return 0;
  }
}

struct SnapshotMetrics {
  obs::Counter& read_bytes = obs::registry().counter("snapshot.read.bytes");
  obs::Counter& read_rows = obs::registry().counter("snapshot.read.rows");
  obs::Counter& read_pages = obs::registry().counter("snapshot.read.pages");
  obs::Counter& zero_copy_cols =
      obs::registry().counter("snapshot.read.zero_copy_columns");
  obs::Counter& write_bytes = obs::registry().counter("snapshot.write.bytes");
  obs::Counter& write_rows = obs::registry().counter("snapshot.write.rows");
  obs::Histogram& read_ms = obs::registry().histogram("snapshot.read.ms");
  obs::Histogram& write_ms = obs::registry().histogram("snapshot.write.ms");
};

SnapshotMetrics& metrics() {
  static SnapshotMetrics m;
  return m;
}

[[noreturn]] void snapshot_fail(const std::string& region,
                                const std::string& msg) {
  throw rcr::InvalidInputError("snapshot " + region + ": " + msg);
}

// --- Little serialization helpers (writer side) ------------------------------

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void put_string(std::string& out, const std::string& s) {
  RCR_CHECK_MSG(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                "snapshot string too long");
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// --- Bounds-checked reads (reader side) --------------------------------------
//
// Every footer byte goes through this cursor, so a truncated or lying
// length field surfaces as a named error instead of an out-of-bounds read.

class Cursor {
 public:
  Cursor(const unsigned char* data, std::size_t size, std::string region)
      : p_(data), end_(data + size), region_(std::move(region)) {}

  template <typename T>
  T get() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  std::string get_string() {
    const std::uint32_t len = get<std::uint32_t>();
    const unsigned char* s = take(len);
    return std::string(reinterpret_cast<const char*>(s), len);
  }

  const unsigned char* take(std::size_t n) {
    if (n > static_cast<std::size_t>(end_ - p_))
      snapshot_fail(region_, "truncated");
    const unsigned char* at = p_;
    p_ += n;
    return at;
  }

  bool exhausted() const { return p_ == end_; }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
  std::string region_;
};

// Column schema as serialized in the dictionary section.
struct ColumnMeta {
  std::string name;
  ColumnKind kind = ColumnKind::kNumeric;
  bool frozen = false;
  std::vector<std::string> labels;  // categories or options
};

// One page index entry: the rows [first_row, first_row + rows) of one
// (column, page kind) array, stored at [offset, offset + bytes).
struct PageEntry {
  std::uint32_t column = 0;
  std::uint32_t kind = 0;
  std::uint64_t first_row = 0;
  std::uint64_t rows = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

}  // namespace

// --- Writer ------------------------------------------------------------------

void write_snapshot(const Table& table, const std::string& path) {
  obs::ScopedTimer timer(metrics().write_ms);
  table.validate_rectangular();
  const std::uint64_t rows = table.row_count();
  const auto& names = table.column_names();

  // Lay the pages out first, so the header can be written before them: one
  // page per column array, each padded to the page alignment so readers can
  // alias typed arrays directly.
  std::vector<PageEntry> pages;
  std::vector<const void*> page_data;
  std::uint64_t offset = kHeaderBytes;
  const auto add_page = [&](std::size_t column, std::uint32_t kind,
                            const void* data) {
    offset = (offset + (kPageAlign - 1)) / kPageAlign * kPageAlign;
    const std::uint64_t bytes = rows * page_elem_size(kind);
    pages.push_back({static_cast<std::uint32_t>(column), kind, 0, rows, offset,
                     bytes, xxhash64(data, bytes)});
    page_data.push_back(data);
    offset += bytes;
  };
  // A table with no rows has no pages.
  for (std::size_t c = 0; rows > 0 && c < names.size(); ++c) {
    switch (table.kind(names[c])) {
      case ColumnKind::kNumeric:
        add_page(c, kPageF64, table.numeric(names[c]).values().data());
        break;
      case ColumnKind::kCategorical:
        add_page(c, kPageCodes, table.categorical(names[c]).codes().data());
        break;
      case ColumnKind::kMultiSelect: {
        const auto& col = table.multiselect(names[c]);
        add_page(c, kPageMasks, col.masks().data());
        add_page(c, kPageMissing, col.missing_flags().data());
        break;
      }
    }
  }
  const std::uint64_t data_end = offset;

  // Dictionary section: the full schema, including dictionary order and
  // frozen state, so a reload is interning-order identical.
  std::string dict;
  for (const auto& name : names) {
    put_string(dict, name);
    switch (table.kind(name)) {
      case ColumnKind::kNumeric:
        dict += '\0';
        dict += '\0';
        put<std::uint32_t>(dict, 0);
        break;
      case ColumnKind::kCategorical: {
        const auto& col = table.categorical(name);
        dict += '\1';
        dict += static_cast<char>(col.frozen() ? 1 : 0);
        put<std::uint32_t>(dict,
                           static_cast<std::uint32_t>(col.category_count()));
        for (const auto& label : col.categories()) put_string(dict, label);
        break;
      }
      case ColumnKind::kMultiSelect: {
        const auto& col = table.multiselect(name);
        dict += '\2';
        dict += '\0';
        put<std::uint32_t>(dict,
                           static_cast<std::uint32_t>(col.option_count()));
        for (const auto& label : col.options()) put_string(dict, label);
        break;
      }
    }
  }

  // Page index section.
  std::string index;
  for (const PageEntry& e : pages) {
    put<std::uint32_t>(index, e.column);
    put<std::uint32_t>(index, e.kind);
    put<std::uint64_t>(index, e.first_row);
    put<std::uint64_t>(index, e.rows);
    put<std::uint64_t>(index, e.offset);
    put<std::uint64_t>(index, e.bytes);
    put<std::uint64_t>(index, e.hash);
  }

  std::string footer;
  put<std::uint64_t>(footer, dict.size());
  footer += dict;
  put<std::uint64_t>(footer, xxhash64(dict.data(), dict.size()));
  put<std::uint64_t>(footer, index.size());
  footer += index;
  put<std::uint64_t>(footer, xxhash64(index.data(), index.size()));

  std::string trailer;
  put<std::uint64_t>(trailer, data_end);
  put<std::uint64_t>(trailer, footer.size());
  put<std::uint64_t>(trailer, xxhash64(trailer.data(), trailer.size()));
  for (char c : kMagic) trailer += c;
  RCR_CHECK(trailer.size() == kTrailerBytes);

  std::string header;
  for (char c : kMagic) header += c;
  put<std::uint32_t>(header, kSnapshotVersion);
  put<std::uint32_t>(header, kEndianTag);
  put<std::uint64_t>(header, rows);
  put<std::uint64_t>(header, names.size());
  put<std::uint64_t>(header, pages.size());
  put<std::uint64_t>(header, data_end);
  put<std::uint64_t>(header, 0);  // reserved
  put<std::uint64_t>(header, xxhash64(header.data(), header.size()));
  RCR_CHECK(header.size() == kHeaderBytes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw rcr::InvalidInputError("cannot write snapshot file: " + path);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  std::uint64_t at = kHeaderBytes;
  const char zeros[kPageAlign] = {};
  for (std::size_t p = 0; p < pages.size(); ++p) {
    out.write(zeros, static_cast<std::streamsize>(pages[p].offset - at));
    out.write(static_cast<const char*>(page_data[p]),
              static_cast<std::streamsize>(pages[p].bytes));
    at = pages[p].offset + pages[p].bytes;
  }
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.close();
  if (!out) throw rcr::InvalidInputError("cannot write snapshot file: " + path);

  metrics().write_rows.add(rows);
  metrics().write_bytes.add(data_end + footer.size() + trailer.size());
}

// --- Reader ------------------------------------------------------------------

namespace {

struct SnapshotView {
  std::shared_ptr<util::MappedFile> map;
  std::uint64_t row_count = 0;
  std::uint64_t data_end = 0;
  std::vector<ColumnMeta> columns;
  // The page of each (column, page kind) array, at column * kPageKinds +
  // kind; none only when the table has no rows.
  std::vector<std::optional<PageEntry>> arrays;
  std::uint64_t page_count = 0;
};

SnapshotView parse_and_validate(const std::string& path) {
  SnapshotView v;
  v.map = util::MappedFile::open(path);
  const unsigned char* base = v.map->data();
  const std::size_t size = v.map->size();

  if (size < kHeaderBytes + kTrailerBytes)
    snapshot_fail("header", "file truncated (" + std::to_string(size) +
                                " bytes): " + path);

  // Header: magic, version, endianness, then the checksum over the rest.
  Cursor h(base, kHeaderBytes, "header");
  if (std::memcmp(h.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0)
    snapshot_fail("header", "bad magic (not an rcr snapshot): " + path);
  const auto version = h.get<std::uint32_t>();
  if (version != kSnapshotVersion)
    snapshot_fail("header", "unsupported version " + std::to_string(version));
  if (h.get<std::uint32_t>() != kEndianTag)
    snapshot_fail("header", "endianness mismatch (file written on an "
                            "incompatible platform)");
  v.row_count = h.get<std::uint64_t>();
  const auto column_count = h.get<std::uint64_t>();
  v.page_count = h.get<std::uint64_t>();
  v.data_end = h.get<std::uint64_t>();
  h.get<std::uint64_t>();  // reserved
  const auto header_hash = h.get<std::uint64_t>();
  if (xxhash64(base, kHeaderBytes - sizeof(std::uint64_t)) != header_hash)
    snapshot_fail("header", "checksum mismatch");

  // Trailer locates the footer; its own hash guards the location fields.
  const unsigned char* tr = base + size - kTrailerBytes;
  Cursor t(tr, kTrailerBytes, "footer");
  const auto footer_offset = t.get<std::uint64_t>();
  const auto footer_bytes = t.get<std::uint64_t>();
  const auto trailer_hash = t.get<std::uint64_t>();
  if (std::memcmp(t.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0)
    snapshot_fail("footer", "bad trailer magic (file truncated or not "
                            "sealed)");
  if (xxhash64(tr, 2 * sizeof(std::uint64_t)) != trailer_hash)
    snapshot_fail("footer", "trailer checksum mismatch");
  if (footer_offset < kHeaderBytes || footer_offset != v.data_end ||
      footer_bytes != size - kTrailerBytes - footer_offset)
    snapshot_fail("footer", "bounds do not match the file size");

  // Footer: dictionary section then page index section, each checksummed.
  Cursor fc(base + footer_offset, footer_bytes, "footer");
  const auto dict_bytes = fc.get<std::uint64_t>();
  const unsigned char* dict = fc.take(dict_bytes);
  if (xxhash64(dict, dict_bytes) != fc.get<std::uint64_t>())
    snapshot_fail("dictionary", "checksum mismatch");
  const auto index_bytes = fc.get<std::uint64_t>();
  const unsigned char* index = fc.take(index_bytes);
  if (xxhash64(index, index_bytes) != fc.get<std::uint64_t>())
    snapshot_fail("page index", "checksum mismatch");
  if (!fc.exhausted()) snapshot_fail("footer", "trailing bytes");

  // Dictionary section: column names, kinds, frozen flags, label sets.
  Cursor dc(dict, dict_bytes, "dictionary");
  v.columns.reserve(column_count);
  for (std::uint64_t c = 0; c < column_count; ++c) {
    ColumnMeta meta;
    meta.name = dc.get_string();
    const auto kind = dc.get<std::uint8_t>();
    meta.frozen = dc.get<std::uint8_t>() != 0;
    const auto label_count = dc.get<std::uint32_t>();
    switch (kind) {
      case 0: meta.kind = ColumnKind::kNumeric; break;
      case 1: meta.kind = ColumnKind::kCategorical; break;
      case 2: meta.kind = ColumnKind::kMultiSelect; break;
      default:
        snapshot_fail("dictionary", "bad column kind " + std::to_string(kind));
    }
    meta.labels.reserve(label_count);
    for (std::uint32_t l = 0; l < label_count; ++l)
      meta.labels.push_back(dc.get_string());
    v.columns.push_back(std::move(meta));
  }
  if (!dc.exhausted()) snapshot_fail("dictionary", "trailing bytes");

  // Page index: typed, bounds-checked descriptors of every page, in the
  // layout write_snapshot writes.
  if (index_bytes != v.page_count * kIndexEntryBytes)
    snapshot_fail("page index", "entry count does not match the header");
  Cursor ic(index, index_bytes, "page index");
  v.arrays.resize(v.columns.size() * kPageKinds);
  for (std::uint64_t p = 0; p < v.page_count; ++p) {
    PageEntry e;
    e.column = ic.get<std::uint32_t>();
    e.kind = ic.get<std::uint32_t>();
    e.first_row = ic.get<std::uint64_t>();
    e.rows = ic.get<std::uint64_t>();
    e.offset = ic.get<std::uint64_t>();
    e.bytes = ic.get<std::uint64_t>();
    e.hash = ic.get<std::uint64_t>();
    const std::size_t elem = page_elem_size(e.kind);
    if (e.column >= v.columns.size() || elem == 0)
      snapshot_fail("page index", "page " + std::to_string(p) +
                                      ": bad column or page kind");
    // Only the writer's layout: one page per array over every row.
    const auto layout_fail = [&](const std::string& what) {
      snapshot_fail("page index",
                    "column '" + v.columns[e.column].name + "' " + what);
    };
    if (e.first_row != 0 || e.rows != v.row_count)
      layout_fail("has a page over rows [" + std::to_string(e.first_row) +
                  ", " + std::to_string(e.first_row + e.rows) + ") of " +
                  std::to_string(v.row_count));
    if (e.bytes != e.rows * elem)
      snapshot_fail("page index", "page " + std::to_string(p) +
                                      ": size does not match row count");
    if (e.offset < kHeaderBytes || e.offset > v.data_end ||
        e.bytes > v.data_end - e.offset)
      snapshot_fail("page index", "page " + std::to_string(p) +
                                      ": data out of bounds");
    const ColumnKind ck = v.columns[e.column].kind;
    const bool kind_ok =
        (ck == ColumnKind::kNumeric && e.kind == kPageF64) ||
        (ck == ColumnKind::kCategorical && e.kind == kPageCodes) ||
        (ck == ColumnKind::kMultiSelect &&
         (e.kind == kPageMasks || e.kind == kPageMissing));
    if (!kind_ok)
      snapshot_fail("page index",
                    "page " + std::to_string(p) + ": page kind does not "
                    "match column '" + v.columns[e.column].name + "'");
    if (e.offset % elem != 0)
      layout_fail("has a page misaligned for its element type");
    auto& slot = v.arrays[e.column * kPageKinds + e.kind];
    if (slot) layout_fail("has two pages of one kind");
    slot = e;
  }
  return v;
}

// One column array, aliasing its page in the mapping after the page's
// checksum has been verified.
template <typename T>
PageVec<T> load_array(const SnapshotView& v, std::size_t column,
                      std::uint32_t kind) {
  const auto& page = v.arrays[column * kPageKinds + kind];
  if (!page) {
    if (v.row_count > 0)
      snapshot_fail("page index",
                    "column '" + v.columns[column].name + "' has no page");
    return {};
  }
  const unsigned char* data = v.map->data() + page->offset;
  if (xxhash64(data, page->bytes) != page->hash)
    snapshot_fail("page", "column '" + v.columns[column].name +
                              "': checksum mismatch");
  return PageVec<T>::borrowed(reinterpret_cast<const T*>(data), page->rows,
                              v.map);
}

}  // namespace

Table read_snapshot(const std::string& path) {
  obs::ScopedTimer timer(metrics().read_ms);
  const SnapshotView v = parse_and_validate(path);

  Table out;
  for (std::size_t c = 0; c < v.columns.size(); ++c) {
    const ColumnMeta& meta = v.columns[c];
    switch (meta.kind) {
      case ColumnKind::kNumeric: {
        auto& col = out.add_numeric(meta.name);
        col.adopt(load_array<double>(v, c, kPageF64));
        break;
      }
      case ColumnKind::kCategorical: {
        auto& col = out.add_categorical(meta.name);
        if (meta.frozen) {
          col = CategoricalColumn{meta.labels};
        } else {
          // Rebuild the unfrozen dictionary by re-interning in stored
          // order, so continued ingest extends it exactly as the original
          // column would have.
          for (const auto& label : meta.labels) col.push(label);
          col.clear();
        }
        auto codes = load_array<std::int32_t>(v, c, kPageCodes);
        const auto limit = static_cast<std::int32_t>(meta.labels.size());
        for (const std::int32_t code : codes)
          if (code != kMissingCode && (code < 0 || code >= limit))
            snapshot_fail("page", "column '" + meta.name +
                                      "': code out of dictionary range");
        col.adopt_codes(std::move(codes));
        break;
      }
      case ColumnKind::kMultiSelect: {
        auto& col = out.add_multiselect(meta.name, meta.labels);
        auto masks = load_array<std::uint64_t>(v, c, kPageMasks);
        auto missing = load_array<std::uint8_t>(v, c, kPageMissing);
        for (const std::uint64_t mask : masks)
          if (meta.labels.size() < MultiSelectColumn::kMaxOptions &&
              (mask >> meta.labels.size()) != 0)
            snapshot_fail("page", "column '" + meta.name +
                                      "': mask selects options beyond the "
                                      "option list");
        for (const std::uint8_t flag : missing)
          if (flag > 1)
            snapshot_fail("page", "column '" + meta.name +
                                      "': bad missing flag");
        col.adopt_rows(std::move(masks), std::move(missing));
        break;
      }
    }
  }
  out.validate_rectangular();

  // Every column of a table with rows aliases the mapping.
  if (v.row_count > 0) metrics().zero_copy_cols.add(v.columns.size());
  metrics().read_rows.add(v.row_count);
  metrics().read_bytes.add(v.map->size());
  metrics().read_pages.add(v.page_count);
  return out;
}

}  // namespace rcr::data
