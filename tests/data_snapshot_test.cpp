// Round-trip, corruption, and end-to-end tests for the binary columnar
// snapshot format (data/snapshot.hpp).
//
// The contracts under test:
//   * CSV -> Table -> snapshot -> mmap -> Table is bitwise: column bytes,
//     dictionary label order, frozen state, and query-engine fingerprints
//     (at thread counts 0/1/2/8) all survive;
//   * a flipped byte in any region (header, page, dictionary, page index,
//     footer) raises InvalidInputError naming the region — never UB, never
//     a silently wrong table (CI runs this suite under ASan/UBSan/TSan);
//   * a page index in any layout but the writer's (split or misaligned
//     pages) is refused, even with every checksum resealed;
//   * a borrowed table is a full Table (copy-on-write on mutation);
//   * the checksum algorithm matches the published XXH64 vectors, so files
//     are portable across builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "data/csv.hpp"
#include "data/snapshot.hpp"
#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rcr::data {
namespace {

std::string to_csv(const Table& t) {
  std::ostringstream out;
  write_csv(out, t);
  return out.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "rcr_snapshot_" + name;
}

// Mirrors data_csv_roundtrip_test.cpp: every escape shape write_csv can
// emit, all three column kinds, missing cells, the answered-none mask.
const std::vector<std::string>& gnarly_labels() {
  static const std::vector<std::string> labels = {
      "plain",     " lead",       "trail ",      " both ",
      "\ttabbed\t", "multi\nline", "cr\rreturn",  "crlf\r\nend",
      "com,ma",    "qu\"ote",     "\"quoted\"",  " \"mix\",\nall\r ",
      "-"};
  return labels;
}

Table make_gnarly_table() {
  const auto& labels = gnarly_labels();
  Table t;
  auto& cat = t.add_categorical("label", labels);
  auto& num = t.add_numeric("score");
  auto& multi =
      t.add_multiselect("opts", {"a", "b c", " padded ", "new\nline"});
  for (std::size_t i = 0; i < 3 * labels.size(); ++i) {
    if (i % 11 == 5)
      cat.push_missing();
    else
      cat.push(labels[i % labels.size()]);
    if (i % 7 == 3)
      num.push_missing();
    else
      num.push(0.125 * static_cast<double>(i) - 2.0);
    if (i % 9 == 4)
      multi.push_missing();
    else
      multi.push_mask(static_cast<std::uint64_t>(i % 16));
  }
  return t;
}

// Bitwise column-storage equality plus schema equality, stricter than the
// CSV-bytes comparison (it sees the raw doubles, codes, masks, and flags).
void expect_tables_bitwise_equal(const Table& a, const Table& b) {
  ASSERT_EQ(a.column_names(), b.column_names());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (const auto& name : a.column_names()) {
    ASSERT_EQ(a.kind(name), b.kind(name)) << name;
    switch (a.kind(name)) {
      case ColumnKind::kNumeric:
        EXPECT_EQ(a.numeric(name).values(), b.numeric(name).values()) << name;
        break;
      case ColumnKind::kCategorical:
        EXPECT_EQ(a.categorical(name).categories(),
                  b.categorical(name).categories())
            << name;
        EXPECT_EQ(a.categorical(name).frozen(), b.categorical(name).frozen())
            << name;
        EXPECT_EQ(a.categorical(name).codes(), b.categorical(name).codes())
            << name;
        break;
      case ColumnKind::kMultiSelect:
        EXPECT_EQ(a.multiselect(name).options(), b.multiselect(name).options())
            << name;
        EXPECT_EQ(a.multiselect(name).masks(), b.multiselect(name).masks())
            << name;
        EXPECT_EQ(a.multiselect(name).missing_flags(),
                  b.multiselect(name).missing_flags())
            << name;
        break;
    }
  }
  EXPECT_EQ(to_csv(a), to_csv(b));
}

// T1–T6-shaped query fingerprint of the gnarly table: crosstab, option
// shares, numeric summary, group-answered — rendered to a string with full
// precision so any drifting bit shows up.
std::string query_fingerprint(const Table& t, parallel::ThreadPool* pool) {
  query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("label", "label");
  const auto ms = engine.add_crosstab_multiselect("label", "opts");
  const auto sh = engine.add_option_shares("opts");
  const auto cs = engine.add_category_shares("label");
  const auto ns = engine.add_numeric_summary("score");
  const auto ga = engine.add_group_answered("label", "opts");
  engine.run(pool);

  char buf[64];
  std::string out;
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    out += buf;
  };
  const auto& xt = engine.crosstab(ct);
  for (std::size_t r = 0; r < xt.row_labels.size(); ++r)
    for (std::size_t c = 0; c < xt.col_labels.size(); ++c)
      add(xt.counts.at(r, c));
  const auto& mt = engine.crosstab(ms);
  for (std::size_t r = 0; r < mt.row_labels.size(); ++r)
    for (std::size_t c = 0; c < mt.col_labels.size(); ++c)
      add(mt.counts.at(r, c));
  for (const auto& s : engine.shares(sh)) {
    out += s.label + ":";
    add(s.count);
    add(s.total);
  }
  for (const auto& s : engine.shares(cs)) {
    out += s.label + ":";
    add(s.count);
    add(s.total);
  }
  const auto& sum = engine.numeric(ns);
  add(sum.count);
  add(sum.sum);
  add(sum.min);
  add(sum.max);
  for (const double v : engine.group_answered(ga)) add(v);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t read_u64(const std::string& bytes, std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

// --- Checksum reference vectors ----------------------------------------------

TEST(XxHash64, MatchesPublishedReferenceVectors) {
  // Published XXH64 vectors (seed 0): the empty string, short tails through
  // the 1/4-byte finishers, and a >32-byte input through the 4-lane loop.
  EXPECT_EQ(xxhash64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxhash64("a", 1), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxhash64("abc", 3), 0x44BC2CF5AD770999ULL);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(xxhash64(fox.data(), fox.size()), 0x0B242D361FDA71BCULL);
}

TEST(XxHash64, SeedAndLengthChangeTheHash) {
  const std::string s = "snapshot";
  EXPECT_NE(xxhash64(s.data(), s.size(), 0), xxhash64(s.data(), s.size(), 1));
  EXPECT_NE(xxhash64(s.data(), s.size()), xxhash64(s.data(), s.size() - 1));
}

// --- Round trips -------------------------------------------------------------

TEST(Snapshot, GnarlyTableRoundTripsBitwise) {
  const Table t = make_gnarly_table();
  const std::string path = temp_path("gnarly.rcr");
  write_snapshot(t, path);
  const Table back = read_snapshot(path);
  expect_tables_bitwise_equal(t, back);
  std::remove(path.c_str());
}

TEST(Snapshot, CsvParsedTableRoundTripsAcrossThreadCounts) {
  // CSV -> read_csv -> snapshot -> mmap -> Table lands on the bytes the CSV
  // read produced, and the reloaded table's query fingerprint matches the
  // parsed table's at pools of 0/1/2/8 threads.
  const Table t = make_gnarly_table();
  Table big = t.clone_empty();
  for (int rep = 0; rep < 40; ++rep) big.append_rows(t);
  std::istringstream in(to_csv(big));
  const Table parsed = read_csv(in, t);
  const std::string path = temp_path("csv_parsed.rcr");
  write_snapshot(parsed, path);
  const Table back = read_snapshot(path);
  expect_tables_bitwise_equal(parsed, back);
  const std::string want = query_fingerprint(parsed, nullptr);
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    std::unique_ptr<parallel::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
    EXPECT_EQ(query_fingerprint(back, pool.get()), want)
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, BorrowedTableIsAFullTableViaCopyOnWrite) {
  const Table t = make_gnarly_table();
  const std::string path = temp_path("cow.rcr");
  write_snapshot(t, path);
  Table borrowed = read_snapshot(path);
  ASSERT_TRUE(borrowed.numeric("score").values().is_borrowed());

  // Mutation materializes a private copy; the sibling read is untouched.
  borrowed.numeric("score").set(0, 123.5);
  EXPECT_FALSE(borrowed.numeric("score").values().is_borrowed());
  EXPECT_EQ(borrowed.numeric("score").at(0), 123.5);
  const Table again = read_snapshot(path);
  expect_tables_bitwise_equal(t, again);

  // The mapping stays pinned by the borrowing columns even after the file
  // is deleted — reads must keep working (POSIX keeps the pages alive).
  std::remove(path.c_str());
  EXPECT_EQ(again.row_count(), t.row_count());
  EXPECT_EQ(to_csv(again), to_csv(t));
}

TEST(Snapshot, UnfrozenDictionaryReloadsWithIdenticalInterningOrder) {
  Table t;
  auto& cat = t.add_categorical("c");  // open dictionary
  for (const char* label : {"delta", "alpha", "echo", "alpha", "bravo"})
    cat.push(label);
  ASSERT_FALSE(cat.frozen());
  const std::string path = temp_path("open_dict.rcr");
  write_snapshot(t, path);

  Table back = read_snapshot(path);
  auto& rcat = back.categorical("c");
  EXPECT_FALSE(rcat.frozen());
  EXPECT_EQ(rcat.categories(),
            (std::vector<std::string>{"delta", "alpha", "echo", "bravo"}));
  EXPECT_EQ(rcat.codes(), t.categorical("c").codes());
  // Continued ingest extends the dictionary exactly as the original would.
  rcat.push("foxtrot");
  EXPECT_EQ(rcat.categories().back(), "foxtrot");
  EXPECT_EQ(rcat.code_at(rcat.size() - 1), 4);
  std::remove(path.c_str());
}

TEST(Snapshot, FrozenStateSurvivesRoundTrip) {
  Table t;
  auto& cat = t.add_categorical("c", {"x", "y"});  // ctor freezes
  cat.push("x");
  ASSERT_TRUE(cat.frozen());
  const std::string path = temp_path("frozen.rcr");
  write_snapshot(t, path);
  Table back = read_snapshot(path);
  EXPECT_TRUE(back.categorical("c").frozen());
  EXPECT_THROW(back.categorical("c").push("unknown"), rcr::Error);
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyTableRoundTrips) {
  Table t;
  t.add_numeric("n");
  t.add_categorical("c", {"a", "b"});
  t.add_multiselect("m", {"o1", "o2"});
  const std::string path = temp_path("empty.rcr");
  write_snapshot(t, path);
  const Table back = read_snapshot(path);
  EXPECT_EQ(back.row_count(), 0u);
  expect_tables_bitwise_equal(t, back);
  std::remove(path.c_str());
}

// --- Corruption --------------------------------------------------------------

// Flips one byte at `offset` and expects read_snapshot to fail with an
// error message naming `region`.
void expect_flip_fails_naming(const std::string& path, std::size_t offset,
                              const std::string& region) {
  std::string bytes = read_file(path);
  ASSERT_LT(offset, bytes.size());
  const std::string mutated_path = path + ".corrupt";
  std::string mutated = bytes;
  mutated[offset] = static_cast<char>(mutated[offset] ^ 0x40);
  write_file(mutated_path, mutated);
  try {
    (void)read_snapshot(mutated_path);
    FAIL() << "accepted a flipped byte at offset " << offset;
  } catch (const rcr::InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find(region), std::string::npos)
        << "offset " << offset << ": " << e.what();
  }
  std::remove(mutated_path.c_str());
}

TEST(SnapshotCorruption, OneFlippedBytePerRegionFailsLoudlyNamingTheRegion) {
  const Table t = make_gnarly_table();
  const std::string path = temp_path("corrupt.rcr");
  write_snapshot(t, path);
  const std::string bytes = read_file(path);
  ASSERT_GE(bytes.size(), 96u);

  // Region offsets from the on-disk layout (DESIGN.md): header at 0, first
  // page at 64, footer located by the trailer's first field.
  const std::size_t footer_offset = read_u64(bytes, bytes.size() - 32);
  const std::size_t dict_bytes = read_u64(bytes, footer_offset);
  const std::size_t dict_payload = footer_offset + 8;
  const std::size_t index_payload = dict_payload + dict_bytes + 8 + 8;

  expect_flip_fails_naming(path, 9, "header");       // version field
  expect_flip_fails_naming(path, 17, "header");      // row count
  expect_flip_fails_naming(path, 64, "page");        // first page payload
  expect_flip_fails_naming(path, footer_offset - 1, "page");  // last payload
  expect_flip_fails_naming(path, dict_payload + 1, "dictionary");
  expect_flip_fails_naming(path, index_payload + 1, "page index");
  expect_flip_fails_naming(path, bytes.size() - 4, "footer");   // magic
  expect_flip_fails_naming(path, bytes.size() - 32, "footer");  // offset
  std::remove(path.c_str());
}

TEST(SnapshotCorruption, TruncationAndGarbageFailLoudly) {
  const Table t = make_gnarly_table();
  const std::string path = temp_path("trunc.rcr");
  write_snapshot(t, path);
  const std::string bytes = read_file(path);

  const std::string trunc = temp_path("trunc_cut.rcr");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{64},
        bytes.size() - 33, bytes.size() - 1}) {
    write_file(trunc, bytes.substr(0, keep));
    EXPECT_THROW((void)read_snapshot(trunc), rcr::InvalidInputError)
        << "kept " << keep << " bytes";
  }
  write_file(trunc, "this is not a snapshot at all");
  EXPECT_THROW((void)read_snapshot(trunc), rcr::InvalidInputError);
  std::remove(trunc.c_str());
  std::remove(path.c_str());

  EXPECT_THROW((void)read_snapshot(temp_path("no_such_file.rcr")),
               rcr::InvalidInputError);
}

TEST(SnapshotCorruption, ForgedCodeRangeIsCaughtByVerification) {
  // Flip a code byte *and* forge the page checksum so only the range check
  // stands between the file and out-of-bounds dictionary indexing.
  Table t;
  auto& cat = t.add_categorical("c", {"a", "b"});
  for (int i = 0; i < 8; ++i) cat.push_code(i % 2);
  const std::string path = temp_path("forged.rcr");
  write_snapshot(t, path);
  std::string bytes = read_file(path);

  // First page holds the eight i32 codes at offset 64; overwrite one with
  // a huge code, then rewrite the page's index-entry hash to match.
  const std::uint64_t footer_offset = read_u64(bytes, bytes.size() - 32);
  const std::uint64_t dict_bytes = read_u64(bytes, footer_offset);
  const std::size_t index_payload =
      static_cast<std::size_t>(footer_offset + 8 + dict_bytes + 8 + 8);
  const std::int32_t evil = 1 << 20;
  std::memcpy(bytes.data() + 64, &evil, sizeof evil);
  const std::uint64_t forged = xxhash64(bytes.data() + 64, 8 * 4);
  // Index entry: column(4) kind(4) first_row(8) rows(8) offset(8) bytes(8)
  // then the hash — 40 bytes in.
  std::memcpy(bytes.data() + index_payload + 40, &forged, sizeof forged);
  // Reseal the index section hash so validation reaches the range check.
  const std::uint64_t index_bytes =
      read_u64(bytes, static_cast<std::size_t>(footer_offset + 8 +
                                               dict_bytes + 8));
  const std::uint64_t index_hash =
      xxhash64(bytes.data() + index_payload, index_bytes);
  std::memcpy(bytes.data() + index_payload + index_bytes, &index_hash,
              sizeof index_hash);
  write_file(path, bytes);

  try {
    (void)read_snapshot(path);
    FAIL() << "accepted an out-of-range categorical code";
  } catch (const rcr::InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("out of dictionary range"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- Layout ------------------------------------------------------------------
//
// Files whose page index describes another layout than the writer's, with
// every checksum recomputed so that only the layout check can refuse them.

// One 48-byte page index entry (DESIGN.md "Columnar snapshot format").
struct IndexEntry {
  std::uint32_t column = 0;
  std::uint32_t kind = 0;
  std::uint64_t first_row = 0;
  std::uint64_t rows = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

template <typename T>
void put_le(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

std::size_t footer_offset_of(const std::string& bytes) {
  return static_cast<std::size_t>(read_u64(bytes, bytes.size() - 32));
}

std::vector<IndexEntry> read_index(const std::string& bytes) {
  const std::size_t footer = footer_offset_of(bytes);
  const std::size_t dict_bytes = read_u64(bytes, footer);
  const std::size_t at = footer + 8 + dict_bytes + 8;
  const std::size_t index_bytes = read_u64(bytes, at);
  std::vector<IndexEntry> entries(index_bytes / 48);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const char* e = bytes.data() + at + 8 + 48 * i;
    IndexEntry& x = entries[i];
    std::memcpy(&x.column, e, 4);
    std::memcpy(&x.kind, e + 4, 4);
    std::memcpy(&x.first_row, e + 8, 8);
    std::memcpy(&x.rows, e + 16, 8);
    std::memcpy(&x.offset, e + 24, 8);
    std::memcpy(&x.bytes, e + 32, 8);
    std::memcpy(&x.hash, e + 40, 8);
  }
  return entries;
}

// `bytes` with its page index replaced by `entries`, resealed: the index
// checksum, the footer length, the trailer checksum, and the header's page
// count and checksum are recomputed.
std::string with_index(const std::string& bytes,
                       const std::vector<IndexEntry>& entries) {
  const std::size_t footer = footer_offset_of(bytes);
  const std::size_t dict_bytes = read_u64(bytes, footer);
  std::string index;
  for (const IndexEntry& e : entries) {
    put_le(index, e.column);
    put_le(index, e.kind);
    put_le(index, e.first_row);
    put_le(index, e.rows);
    put_le(index, e.offset);
    put_le(index, e.bytes);
    put_le(index, e.hash);
  }
  // The dictionary section, its length prefix and its checksum, unchanged.
  std::string out = bytes.substr(0, footer + 8 + dict_bytes + 8);
  put_le<std::uint64_t>(out, index.size());
  out += index;
  put_le(out, xxhash64(index.data(), index.size()));
  std::string trailer;
  put_le<std::uint64_t>(trailer, footer);
  put_le<std::uint64_t>(trailer, out.size() - footer);
  put_le(trailer, xxhash64(trailer.data(), trailer.size()));
  out += trailer;
  out += bytes.substr(bytes.size() - 8);  // trailer magic
  const std::uint64_t pages = entries.size();
  std::memcpy(out.data() + 32, &pages, sizeof pages);
  const std::uint64_t header_hash = xxhash64(out.data(), 56);
  std::memcpy(out.data() + 56, &header_hash, sizeof header_hash);
  return out;
}

// Writes `bytes` and expects read_snapshot to refuse them with a page index
// error naming column `name`.
void expect_page_index_error(const std::string& bytes,
                             const std::string& name) {
  const std::string path = temp_path("layout.rcr");
  write_file(path, bytes);
  try {
    (void)read_snapshot(path);
    ADD_FAILURE() << "accepted a page index the writer never writes";
  } catch (const rcr::InvalidInputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("page index"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(SnapshotLayout, ResealingAnUnchangedIndexIsTheIdentity) {
  // The helpers themselves: rewriting the index unchanged reproduces the
  // file byte for byte.
  const Table t = make_gnarly_table();
  const std::string path = temp_path("resealed.rcr");
  write_snapshot(t, path);
  const std::string bytes = read_file(path);
  EXPECT_EQ(with_index(bytes, read_index(bytes)), bytes);
  std::remove(path.c_str());
}

TEST(SnapshotLayout, SplitPageIsRefusedNamingTheColumn) {
  // One column's page becomes two entries over the same bytes, [0, k) and
  // [k, n): a tiling of the rows, but not the one-page layout.
  const Table t = make_gnarly_table();
  const std::string path = temp_path("split.rcr");
  write_snapshot(t, path);
  const std::string bytes = read_file(path);
  std::remove(path.c_str());

  std::vector<IndexEntry> entries = read_index(bytes);
  const std::uint32_t score = 1;  // "score": numeric, one f64 page
  ASSERT_EQ(t.column_names()[score], "score");
  std::vector<IndexEntry> split;
  for (const IndexEntry& e : entries) {
    if (e.column != score) {
      split.push_back(e);
      continue;
    }
    const std::uint64_t k = e.rows / 2;
    IndexEntry head = e, tail = e;
    head.rows = k;
    head.bytes = 8 * k;
    head.hash = xxhash64(bytes.data() + head.offset, head.bytes);
    tail.first_row = k;
    tail.rows = e.rows - k;
    tail.offset = e.offset + 8 * k;
    tail.bytes = 8 * tail.rows;
    tail.hash = xxhash64(bytes.data() + tail.offset, tail.bytes);
    split.push_back(head);
    split.push_back(tail);
  }
  ASSERT_EQ(split.size(), entries.size() + 1);
  expect_page_index_error(with_index(bytes, split), "score");
}

TEST(SnapshotLayout, MisalignedPageIsRefusedNamingTheColumn) {
  // The numeric page moves one byte up, off its 8-byte alignment, with its
  // bytes moved along and its checksum recomputed.
  const Table t = make_gnarly_table();
  const std::string path = temp_path("misaligned.rcr");
  write_snapshot(t, path);
  std::string bytes = read_file(path);
  std::remove(path.c_str());

  std::vector<IndexEntry> entries = read_index(bytes);
  const std::uint32_t score = 1;
  ASSERT_EQ(t.column_names()[score], "score");
  for (IndexEntry& e : entries) {
    if (e.column != score) continue;
    // The page's tail padding holds the shifted last byte.
    ASSERT_NE((e.offset + e.bytes) % 64, 0u);
    bytes.replace(e.offset + 1, e.bytes, bytes.substr(e.offset, e.bytes));
    e.offset += 1;
    e.hash = xxhash64(bytes.data() + e.offset, e.bytes);
  }
  expect_page_index_error(with_index(bytes, entries), "score");
}

// --- End-to-end through core -------------------------------------------------

TEST(SnapshotCore, SnapshotBackedStudyReproducesSynthesizedWavesBitwise) {
  core::StudyConfig small;
  small.n_2011 = 40;
  small.n_2024 = 60;
  const core::Study generated(small);

  const std::string p2011 = temp_path("wave2011.rcr");
  const std::string p2024 = temp_path("wave2024.rcr");
  write_snapshot(generated.wave(0), p2011);
  write_snapshot(generated.wave(1), p2024);

  core::StudyConfig from_disk = small;
  from_disk.snapshot_2011 = p2011;
  from_disk.snapshot_2024 = p2024;
  const core::Study loaded(from_disk);
  expect_tables_bitwise_equal(generated.wave(0), loaded.wave(0));
  expect_tables_bitwise_equal(generated.wave(1), loaded.wave(1));
  std::remove(p2011.c_str());
  std::remove(p2024.c_str());
}

}  // namespace
}  // namespace rcr::data
